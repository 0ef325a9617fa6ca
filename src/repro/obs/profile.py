"""Wall-clock sampling profiler emitting collapsed-stack output.

The fourth plane of ``repro.obs``: a daemon thread samples
``sys._current_frames()`` at a fixed interval and counts how often each
stack was on-CPU-or-waiting, keyed by the root-first collapsed form
flamegraph tools consume::

    engine.py:run:319;executor.py:submit:88;worker.py:_compute:201 42

Enabled via ``repro --profile OUT`` / :data:`ENV_PROFILE` on the driver;
workers profile per-task when the coordinator sets ``JoinRun.profile``
and ship their counts back on ``TaskResult.profile`` (the analogue of
the span piggyback), where the driver folds them in under a
``worker:<id>;`` prefix so one flamegraph spans the whole fleet.

Disabled is the default and costs what disabled tracing costs: the
module-level functions check one global against ``None`` and the shared
:data:`_NOOP_PROFILER` swallows calls without allocating — the same
no-op-singleton contract ``tests/obs/test_overhead.py`` pins for spans.
"""

from __future__ import annotations

import os.path
import sys
import threading
from typing import Any, Iterable

__all__ = [
    "DEFAULT_INTERVAL",
    "ENV_PROFILE",
    "Profiler",
    "active_profiler",
    "enabled",
    "end_profile",
    "parse_collapsed",
    "start_profile",
]

#: Environment knob: set to an output path to profile a CLI run; the
#: collapsed-stack file is written when the command finishes.
ENV_PROFILE = "REPRO_PROFILE"

#: Sampling period in seconds (200 Hz): coarse enough that the sampler
#: is invisible next to real work, fine enough to resolve task phases.
DEFAULT_INTERVAL = 0.005


def _frame_name(frame: Any) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    name = f"{filename}:{code.co_name}:{frame.f_lineno}"
    # ";" joins frames and " " splits stack from count in the collapsed
    # grammar, so neither may survive inside a frame name.
    return name.replace(";", ":").replace(" ", "_")


def _collapse(frame: Any) -> str:
    frames = []
    while frame is not None:
        frames.append(_frame_name(frame))
        frame = frame.f_back
    return ";".join(reversed(frames))


class Profiler:
    """Samples every thread's stack on a daemon thread until stopped.

    ``threads`` restricts sampling to the given thread idents (the worker
    uses this to profile exactly the slot thread running a task); the
    sampler always skips its own thread.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        threads: Iterable[int] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(
                f"profiler interval must be > 0 seconds, got {interval}"
            )
        self.interval = interval
        self._threads = frozenset(threads) if threads is not None else None
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample_loop, daemon=True, name="repro-profiler"
        )
        self._thread.start()

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                for ident, frame in frames.items():
                    if ident == own:
                        continue
                    if self._threads is not None and ident not in self._threads:
                        continue
                    stack = _collapse(frame)
                    if stack:
                        self._counts[stack] = self._counts.get(stack, 0) + 1
                        self.samples += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def counts(self) -> dict[str, int]:
        """A copy of the ``{collapsed_stack: samples}`` table so far."""
        with self._lock:
            return dict(self._counts)

    def add_counts(self, counts: dict[str, int], prefix: str = "") -> None:
        """Fold another profile in, optionally under a root frame.

        The coordinator folds worker-shipped task profiles in with
        ``prefix="worker:<id>"`` so fleet stacks stay distinguishable.
        """
        if not isinstance(counts, dict):
            return
        with self._lock:
            for stack, n in counts.items():
                if not isinstance(stack, str) or not isinstance(n, int):
                    continue
                if prefix:
                    stack = f"{prefix};{stack}" if stack else prefix
                self._counts[stack] = self._counts.get(stack, 0) + n
                self.samples += n

    def collapsed(self) -> str:
        """The profile in collapsed-stack text form (sorted, one per line)."""
        with self._lock:
            rows = sorted(self._counts.items())
        return "".join(f"{stack} {n}\n" for stack, n in rows)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed())


def parse_collapsed(text: str) -> dict[str, int]:
    """Parse collapsed-stack text back into a ``{stack: count}`` table.

    The inverse of :meth:`Profiler.collapsed`; the round-trip test uses it,
    and it accepts anything flamegraph tooling would (blank lines skipped,
    counts folded across duplicate stacks).
    """
    counts: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, raw = line.rpartition(" ")
        if not stack:
            raise ValueError(f"collapsed-stack line has no count: {line!r}")
        counts[stack] = counts.get(stack, 0) + int(raw)
    return counts


class _NoopProfiler:
    """Shared do-nothing stand-in returned while profiling is off."""

    __slots__ = ()
    interval = 0.0
    samples = 0

    def stop(self) -> None:
        pass

    def counts(self) -> dict[str, int]:
        return {}

    def add_counts(self, counts: dict[str, int], prefix: str = "") -> None:
        pass

    def collapsed(self) -> str:
        return ""

    def write(self, path: str) -> None:
        pass


#: The one no-op instance; identity-pinned by the overhead test.
_NOOP_PROFILER = _NoopProfiler()

_ACTIVE: Profiler | None = None
_ACTIVE_LOCK = threading.Lock()


def start_profile(
    interval: float = DEFAULT_INTERVAL,
    threads: Iterable[int] | None = None,
) -> Profiler:
    """Start the process-wide profiler (idempotent while one is running)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = Profiler(interval=interval, threads=threads)
        return _ACTIVE


def end_profile() -> Profiler | None:
    """Stop the process-wide profiler and return it (holding its counts)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        profiler, _ACTIVE = _ACTIVE, None
    if profiler is not None:
        profiler.stop()
    return profiler


def active_profiler():
    """The running profiler, or the shared no-op when profiling is off."""
    return _ACTIVE if _ACTIVE is not None else _NOOP_PROFILER


def enabled() -> bool:
    return _ACTIVE is not None
