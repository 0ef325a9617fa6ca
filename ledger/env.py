"""Process environment of a ledger run: BLAS pins, import path, provenance.

This module imports neither NumPy nor ``repro``: :func:`bootstrap` has to run
before either is loaded, because OpenBLAS reads its thread count once, at
import.  Without the pin the process-executor numbers do not repeat (two pool
workers times two BLAS threads on two cores: the all-pairs query takes 1.3 s
or 20 s from call to call); with it "serial" really is one core.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set (to anything) in the environment of the one child process that
#: measures ``mapreduce.engine.blas_default_ratio``: the pin is then removed
#: instead of applied.
UNPINNED_VAR = "LEDGER_BLAS_UNPINNED"

#: Parallel workloads use exactly this many workers and refuse to run on a
#: host that cannot schedule them on distinct CPUs.
PARALLEL_WORKERS = 2


def bootstrap() -> None:
    """Pin BLAS threads and put ``src/`` on the import path.

    The pins are written to ``os.environ`` so pool workers, cluster workers
    and the cold-query CLI child inherit them.  ``PYTHONPATH`` is set for the
    CLI child (cluster workers derive theirs from ``sys.path``).
    """
    for var in BLAS_VARS:
        if os.environ.get(UNPINNED_VAR):
            os.environ.pop(var, None)
        else:
            os.environ[var] = "1"
    # Executor choice is part of each workload; the program's environment
    # fallbacks must not steer it.
    for var in ("REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_TRACE", "REPRO_PROFILE"):
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no program to measure ({SRC}/repro is missing)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits before it (Linux child subreaper).

    The cold-query CLI child under ``--executor process`` starts a
    ``multiprocessing`` resource tracker that outlives it by a moment; without
    this it is re-parented to PID 1, which in a container may never reap it,
    and the benchmark would leave a process behind.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _children() -> list[int]:
    """Live or defunct children of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may itself contain ") ".
        if int(stat.rpartition(") ")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace: float = 10.0) -> None:
    """Stop and wait for every process this one started or adopted, so none
    is running (or defunct) once the benchmark has exited.

    This process's own resource tracker ends when its pipe closes; adopted
    ones end by themselves.  Whatever is still there after ``grace`` seconds
    is killed.
    """
    tracker = getattr(
        sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None
    )
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        try:
            os.close(fd)
        except OSError:
            pass
        tracker._fd = None
        tracker._pid = None  # reaped below with everything else
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:  # and again for what they orphan
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


def usable_cpus() -> int:
    """CPUs this process may be scheduled on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``"unknown"``
    where the tree is not a git repository (the driver's checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, seconds: float, tiny: bool) -> dict:
    """Everything that decides whether two result files are comparable."""
    import numpy

    return {
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "usable_cpus": usable_cpus(),
        "total_cpus": os.cpu_count() or 1,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


#: Provenance fields that must agree before two result sets are compared.
#: The commit is deliberately absent: comparing two commits is the point.
COMPARABLE_FIELDS = (
    "seed",
    "seconds",
    "tiny",
    "python",
    "numpy",
    "machine",
    "usable_cpus",
    "blas_threads",
)


def provenance_mismatch(a: dict, b: dict) -> list[str]:
    """Names of the comparable fields on which ``a`` and ``b`` differ."""
    return [f for f in COMPARABLE_FIELDS if a.get(f) != b.get(f)]
