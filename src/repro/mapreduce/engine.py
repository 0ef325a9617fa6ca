"""Local map-reduce engine (the Hadoop substitute of §5.4 / Appendix C).

Executes :class:`~repro.mapreduce.job.MapReduceJob` instances in process.
Three executors are provided:

* ``"serial"`` — tasks run one after another (deterministic; per-task wall
  times are recorded so the simulated-cluster scheduler can replay them).
* ``"thread"`` — map and reduce tasks run on a thread pool.  Overlap is real
  wherever the heavy lifting happens inside NumPy (which releases the GIL);
  pure-Python task bodies stay serialized by the interpreter lock.
* ``"process"`` — tasks run on a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Each worker is a separate interpreter, so pure-Python work (the merge-tree
  sweep dominating feature identification) parallelizes too.  Task payloads
  are pickled, with large NumPy matrices detoured through the array plane's
  shared-memory transport (:mod:`repro.mapreduce.shm`) so the same value
  matrix is shipped once per run instead of once per task.

Determinism.  Every intermediate pair is tagged with its provenance
``(input_index, emit_index)`` before the shuffle; the shuffle
(:class:`ShuffleFolder`, shared with the cluster coordinator) orders by that
tag, so grouped values (and therefore reduce outputs) are identical no
matter how map tasks were scheduled, on which worker they ran, or in which
order their results arrived.  This is what lets :class:`repro.core.Corpus`
promise bit-identical serial, threaded, process-parallel and cluster
indexes/queries.

Chunked map partitions.  One pool task per map input is wasteful when a job
has many tiny inputs (dispatch dominates).  ``map_chunk_size`` groups
consecutive inputs into one schedulable task: pass an ``int``, or ``"auto"``
to size chunks per executor (see :func:`auto_chunk_size` — process workers
get larger chunks, amortizing the per-task pickle/IPC round trip that
threads do not pay).

Environment defaults.  :func:`default_engine` resolves unset knobs from
``REPRO_EXECUTOR`` / ``REPRO_WORKERS``, which is how CI re-runs whole test
suites under the process executor without touching a single call site.  A
fourth executor, ``"cluster"``, lives outside this module: it resolves to
:class:`repro.distributed.ClusterEngine` (real multi-host workers over TCP,
``REPRO_CLUSTER`` names the coordinator address) behind the same
``run(job, inputs)`` contract.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from .. import obs
from ..utils.errors import MapReduceError, ReproError
from . import shm
from .job import JobStats, MapReduceJob

#: The executors :class:`LocalEngine` itself runs, in documentation order.
EXECUTORS = ("serial", "thread", "process")

#: Every executor :func:`default_engine` can build — the local three plus
#: the distributed backend (``executor="cluster"`` returns a
#: :class:`repro.distributed.ClusterEngine` behind the same contract).
ALL_EXECUTORS = EXECUTORS + ("cluster",)


def _start_method() -> str:
    """Start method for process-executor workers.

    Pinned explicitly so behavior does not drift with the platform default
    (CPython is migrating it): fork on Linux — cheapest startup, and workers
    inherit the loaded corpus read-only — spawn everywhere else.  The
    shared-memory plane is agnostic either way (attachments are untracked by
    construction, see :mod:`repro.mapreduce.shm`).
    """
    if sys.platform.startswith("linux"):
        return "fork"
    return "spawn"  # pragma: no cover - non-Linux platforms


#: ``"auto"`` chunking targets this many map tasks per worker: enough tasks
#: to keep the pool busy (work stealing across uneven tasks) without
#: per-input dispatch.  Process workers get fewer, larger chunks because
#: every task also pays a pickle/IPC round trip.  (The cluster coordinator
#: sizes its own tasks, from measured per-input seconds.)
_AUTO_TASKS_PER_WORKER = {"thread": 4, "process": 2}

#: A tagged intermediate pair: ((input_index, emit_index), key, value).
TaggedPair = tuple[tuple[int, int], Hashable, Any]


def auto_chunk_size(n_inputs: int, n_workers: int, executor: str) -> int:
    """Map-chunk size chosen by ``map_chunk_size="auto"``.

    ``ceil(n_inputs / (n_workers * tasks_per_worker))`` with a per-executor
    ``tasks_per_worker``: 4 for threads (dispatch is cheap, favor work
    stealing) and 2 for processes (every task ships its payload through
    pickle/IPC, favor amortization).  Serial execution keeps one input per
    task so per-task timings stay maximally informative for the
    simulated-cluster replay.
    """
    if executor not in EXECUTORS:
        raise MapReduceError(
            f"unknown executor {executor!r} (valid executors: "
            f"{', '.join(EXECUTORS)})"
        )
    if executor == "serial" or n_workers <= 1 or n_inputs <= 0:
        return 1
    per_worker = _AUTO_TASKS_PER_WORKER[executor]
    return max(1, math.ceil(n_inputs / (n_workers * per_worker)))


def default_engine(
    n_workers: int | None = None,
    executor: str | None = None,
    map_chunk_size: int | str | None = "auto",
):
    """Build an engine, resolving unset knobs from the environment.

    ``executor=None`` falls back to ``$REPRO_EXECUTOR`` (default
    ``"serial"``); ``n_workers=None`` falls back to ``$REPRO_WORKERS``
    (default: 1).  Explicit arguments always win, so only call sites that
    pass nothing become environment-steerable — this is how the CI process
    and cluster jobs replay the whole mapreduce/persist test suites under
    ``REPRO_EXECUTOR=process``/``cluster`` without editing them.

    Environment values are validated *here*, up front: a typo in
    ``REPRO_EXECUTOR`` or ``REPRO_WORKERS`` raises a
    :class:`MapReduceError` naming the variable and the accepted values at
    engine-construction time, instead of surfacing as a raw ``ValueError``
    (or a late failure) deep inside the first job.

    ``executor="cluster"`` returns a
    :class:`repro.distributed.ClusterEngine` whose coordinator binds the
    ``$REPRO_CLUSTER`` address (default ``127.0.0.1:7077``) — the same
    ``run(job, inputs)`` contract, executed by ``repro worker`` daemons.
    ``map_chunk_size`` sizes the local pools only; the coordinator sizes
    cluster tasks from measured throughput.
    ``$REPRO_FALLBACK`` (``serial``/``thread``/``process``) arms graceful
    degradation: when the cluster is unavailable (workers never registered,
    or all lost mid-run) the job reruns on that local executor instead of
    failing, with the downgrade logged.
    """
    if executor is None:
        raw_executor = os.environ.get("REPRO_EXECUTOR") or "serial"
        if raw_executor not in ALL_EXECUTORS:
            raise MapReduceError(
                f"REPRO_EXECUTOR must be one of {', '.join(ALL_EXECUTORS)}; "
                f"got {raw_executor!r}"
            )
        executor = raw_executor
    if n_workers is None:
        raw = os.environ.get("REPRO_WORKERS")
        if raw is None or raw == "":
            n_workers = 1
        else:
            try:
                n_workers = int(raw)
            except ValueError:
                raise MapReduceError(
                    f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
                ) from None
            if n_workers < 1:
                raise MapReduceError(
                    f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
                )
    if executor == "cluster":
        # Imported lazily: repro.distributed builds on this module.
        from ..distributed import ClusterEngine

        bind = os.environ.get("REPRO_CLUSTER") or "127.0.0.1:7077"
        from ..distributed.protocol import parse_address

        parse_address(bind, variable="REPRO_CLUSTER")  # validate up front
        raw_fallback = os.environ.get("REPRO_FALLBACK") or None
        if raw_fallback is not None and raw_fallback not in (
            "serial",
            "thread",
            "process",
        ):
            raise MapReduceError(
                "REPRO_FALLBACK must be one of serial, thread, process "
                f"(or unset); got {raw_fallback!r}"
            )
        return ClusterEngine(
            bind=bind, n_workers=n_workers, shared=True, fallback=raw_fallback
        )
    return LocalEngine(
        n_workers=n_workers, executor=executor, map_chunk_size=map_chunk_size
    )


def _map_chunk(job: MapReduceJob, chunk: list) -> list[TaggedPair]:
    """Run one chunk of map inputs, tagging every emitted pair.

    Module-level (not a closure) so the process executor can run it inside a
    worker after unpickling the payload.
    """
    tagged: list[TaggedPair] = []
    for input_index, (key, value) in chunk:
        for emit_index, (k, v) in enumerate(job.map(key, value)):
            tagged.append(((input_index, emit_index), k, v))
    return tagged


class ShuffleFolder:
    """The shuffle: fold tagged map outputs into per-key value groups.

    ``add`` may be called with each map task's output as it lands, in any
    arrival order and under any partition of the pairs into map results;
    ``finalize`` sorts each key's bucket by the ``(input_index,
    emit_index)`` tag and orders keys by their smallest tag.  Tags are
    unique, so that equals grouping the globally tag-sorted pair stream:
    per-key value order and key (reduce-task) order depend only on what the
    map phase emitted — never on scheduling.  Every engine shuffles through
    this one class (the local pools after their map wave, the cluster
    coordinator while its map wave is still running), which is the property
    the parallel/serial equivalence tests pin down.
    """

    def __init__(self) -> None:
        #: key -> its tagged pairs, appended in arrival order; the dict's own
        #: insertion order is arrival order too and is never consulted.
        self._buckets: dict[Hashable, list[TaggedPair]] = defaultdict(list)

    def add(self, tagged_pairs: Iterable[TaggedPair]) -> None:
        """Fold one map result into the per-key buckets."""
        for pair in tagged_pairs:
            self._buckets[pair[1]].append(pair)

    def finalize(self) -> list[tuple[Hashable, list[Any]]]:
        """The ``(key, values)`` groups, in deterministic reduce order."""
        entries = []
        for key, bucket in self._buckets.items():
            bucket.sort(key=lambda pair: pair[0])
            entries.append((bucket[0][0], key, [pair[2] for pair in bucket]))
        entries.sort(key=lambda entry: entry[0])
        return [(key, values) for _, key, values in entries]


def run_task(kind: str, job: MapReduceJob, data: Any) -> list:
    """The body of one schedulable task, on every executor.

    ``("map", job, chunk)`` runs a chunk of indexed inputs through
    :func:`_map_chunk`; ``("reduce", job, (key, values))`` runs one group.
    """
    if kind == "map":
        return _map_chunk(job, data)
    if kind == "reduce":
        key, values = data
        return list(job.reduce(key, values))
    raise MapReduceError(f"unknown task kind {kind!r}")


def capture_task_error() -> tuple[str, BaseException | None]:
    """``(traceback text, original)`` of the exception being handled.

    What a task that raised out of sight of the driver — in a pool process
    or on a cluster host — reports instead of a result.  ``original`` is
    the exception instance when it survives a pickle round trip, else
    ``None``.
    """
    exc = sys.exc_info()[1]
    original: BaseException | None
    try:
        original = pickle.loads(pickle.dumps(exc))
    except Exception:
        original = None
    return traceback.format_exc(), original


def task_error(
    kind: str, where: str, remote_tb: str, original: BaseException | None
) -> BaseException:
    """The caller-facing exception for a :func:`capture_task_error` report.

    Library errors keep their type and message — serial, thread, process
    and cluster execution all raise the same exception — with the remote
    traceback riding along as the cause; everything else becomes a
    :class:`MapReduceError` carrying the original traceback.
    """
    context = MapReduceError(
        f"{kind} task failed {where}; original traceback:\n{remote_tb}"
    )
    if isinstance(original, ReproError):
        original.__cause__ = context
        return original
    return context


def _process_task(payload: bytes) -> tuple:
    """Worker entry point of the process executor.

    Decodes one plane-pickled task, runs it, and reports
    ``("ok", result, seconds)`` — or ``("err", traceback_text, original)``
    so the parent can surface the failure itself (:func:`task_error`)
    instead of the executor's opaque ``BrokenProcessPool`` path.
    """
    start = time.perf_counter()
    try:
        result = run_task(*shm.loads(payload, shm.attach))
        return ("ok", result, time.perf_counter() - start)
    except BaseException:
        return ("err", *capture_task_error())


class LocalEngine:
    """Runs map-reduce jobs in process.

    Parameters
    ----------
    n_workers:
        Pool width for the ``"thread"`` and ``"process"`` executors (ignored
        by ``"serial"``).
    executor:
        ``"serial"`` (default), ``"thread"`` or ``"process"``.
    map_chunk_size:
        Number of consecutive map inputs grouped into one schedulable task.
        ``None`` (default) keeps one task per input; ``"auto"`` sizes chunks
        per executor via :func:`auto_chunk_size`.
    shm_min_bytes:
        Arrays at least this large are shipped to process workers through
        the shared-memory plane instead of per-task pickling (ignored by
        the in-process executors, which share objects by reference).
    """

    def __init__(
        self,
        n_workers: int = 1,
        executor: str = "serial",
        map_chunk_size: int | str | None = None,
        shm_min_bytes: int = shm.DEFAULT_MIN_BYTES,
    ) -> None:
        if executor == "cluster":
            raise MapReduceError(
                "executor 'cluster' is the distributed backend — build it "
                "with default_engine(executor='cluster') or "
                "repro.distributed.ClusterEngine, not LocalEngine"
            )
        if executor not in EXECUTORS:
            raise MapReduceError(
                f"unknown executor {executor!r} (valid executors: "
                f"{', '.join(EXECUTORS)})"
            )
        if not isinstance(n_workers, int) or n_workers < 1:
            raise MapReduceError(
                f"n_workers must be an integer >= 1, got {n_workers!r}"
            )
        if map_chunk_size is not None and map_chunk_size != "auto":
            if not isinstance(map_chunk_size, int) or map_chunk_size < 1:
                raise MapReduceError(
                    "map_chunk_size must be a positive int, 'auto' or None"
                )
        if shm_min_bytes < 1:
            raise MapReduceError("shm_min_bytes must be >= 1")
        self.n_workers = n_workers
        self.executor = executor
        self.map_chunk_size = map_chunk_size
        self.shm_min_bytes = shm_min_bytes
        #: :class:`repro.obs.RunReport` of the most recent ``run`` call.
        self.last_run_report: obs.RunReport | None = None

    @property
    def is_parallel(self) -> bool:
        """True when tasks actually run on a thread or process pool."""
        return self.executor in ("thread", "process") and self.n_workers > 1

    def _resolve_chunk_size(self, n_inputs: int) -> int:
        if self.map_chunk_size is None:
            return 1
        if self.map_chunk_size == "auto":
            return auto_chunk_size(n_inputs, self.n_workers, self.executor)
        return self.map_chunk_size

    def run(
        self, job: MapReduceJob, inputs: Iterable[tuple[Any, Any]]
    ) -> tuple[list[tuple[Any, Any]], JobStats]:
        """Execute ``job`` over ``inputs``; returns (outputs, stats)."""
        stats = JobStats()
        wall_start = time.perf_counter()
        with obs.span(
            "engine.run",
            executor=self.executor,
            n_workers=self.n_workers,
            job=type(job).__name__,
        ) as run_span:
            outputs = self._execute(job, inputs, stats, run_span.span_id)
            run_span.set(n_outputs=stats.n_outputs)
        stats.wall_seconds = time.perf_counter() - wall_start
        obs.histogram("repro.engine.run_seconds", executor=self.executor).observe(
            stats.wall_seconds
        )
        report = obs.RunReport.from_stats(
            stats, job=type(job).__name__, executor=self.executor,
            n_workers=self.n_workers,
        )
        self.last_run_report = report
        trace = obs.current_trace()
        if trace is not None:
            trace.add_report(report.to_json())
        return outputs, stats

    def _execute(
        self,
        job: MapReduceJob,
        inputs: Iterable[tuple[Any, Any]],
        stats: JobStats,
        run_span_id: int | None,
    ) -> list[tuple[Any, Any]]:
        """The phases of :meth:`run` (spans/report handled by the caller)."""
        input_list = list(inputs)
        chunk_size = self._resolve_chunk_size(len(input_list))
        indexed = list(enumerate(input_list))
        chunks = [
            indexed[lo : lo + chunk_size]
            for lo in range(0, len(indexed), chunk_size)
        ]
        stats.n_map_chunks = len(chunks)

        with self._phase_runner(job, run_span_id) as run_phase:
            map_results = run_phase("map", chunks, stats.map_task_seconds)
            with obs.span("engine.shuffle"):
                start = time.perf_counter()
                folder = ShuffleFolder()
                for emitted in map_results:
                    folder.add(emitted)
                groups = folder.finalize()
                stats.shuffle_seconds = time.perf_counter() - start
            reduce_results = run_phase("reduce", groups, stats.reduce_task_seconds)

        outputs = [pair for emitted in reduce_results for pair in emitted]
        stats.n_outputs = len(outputs)
        return outputs

    @contextlib.contextmanager
    def _phase_runner(
        self, job: MapReduceJob, span_parent: int | None
    ) -> Iterator[Callable]:
        """Yield ``run_phase(kind, items, timings) -> results`` for ``job``.

        One pool — and, for processes, one shared-memory plane — spans both
        task phases, so a value matrix referenced by a map chunk *and* a
        reduce group is still registered only once.  The plane is closed in
        ``finally``: success, task failure or pool breakage all release
        every segment.
        """
        if not self.is_parallel:
            yield functools.partial(self._run_inline_phase, map, span_parent, job)
        elif self.executor == "thread":
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                yield functools.partial(
                    self._run_inline_phase, pool.map, span_parent, job
                )
        else:
            plane = shm.SharedArrayPlane(min_bytes=self.shm_min_bytes)
            try:
                with ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context(_start_method()),
                ) as pool:
                    yield functools.partial(
                        self._run_process_phase, pool, plane, span_parent, job
                    )
            finally:
                plane.close()

    # -- serial and thread executors -----------------------------------------

    @staticmethod
    def _run_inline_phase(
        map_fn: Callable,
        span_parent: int | None,
        job: MapReduceJob,
        kind: str,
        items: list,
        timings: list[float],
    ) -> list[list]:
        """Run one phase's tasks in this process, recording times.

        ``map_fn`` is the builtin ``map`` (serial) or a thread pool's.
        Per-task spans carry an explicit ``span_parent`` (the run span's
        id): pool threads have no span stack of their own, so thread-local
        nesting cannot resolve the parent for them.
        """

        span_name = f"{kind}.task"

        def timed_task(item: Any) -> tuple[list, float]:
            with obs.span(span_name, parent=span_parent):
                start = time.perf_counter()
                out = run_task(kind, job, item)
                return out, time.perf_counter() - start

        outputs = []
        for out, seconds in map_fn(timed_task, items):
            outputs.append(out)
            timings.append(seconds)
        return outputs

    # -- process executor ----------------------------------------------------

    @staticmethod
    def _run_process_phase(
        pool: ProcessPoolExecutor,
        plane: shm.SharedArrayPlane,
        span_parent: int | None,
        job: MapReduceJob,
        kind: str,
        items: list,
        timings: list[float],
    ) -> list[list]:
        """Ship one phase's tasks to the pool; results in submission order."""
        try:
            futures: list[Future] = [
                pool.submit(_process_task, shm.dumps((kind, job, item), plane))
                for item in items
            ]
        except BrokenProcessPool as exc:  # pragma: no cover - races only
            raise MapReduceError(
                f"process pool broke while submitting {kind} tasks: {exc}"
            ) from exc

        outputs: list[list] = []
        try:
            for future in futures:
                result = future.result()
                if result[0] == "err":
                    _status, remote_tb, original = result
                    raise task_error(kind, "in a worker process", remote_tb, original)
                _status, out, seconds = result
                outputs.append(out)
                timings.append(seconds)
                # Worker processes have no trace; approximate each task as
                # an interval ending at result arrival in the parent clock.
                obs.record_span(
                    f"{kind}.task",
                    seconds,
                    parent=span_parent,
                    track="process-pool",
                )
        except BrokenProcessPool as exc:
            raise MapReduceError(
                f"a worker process died during the {kind} phase (killed or "
                f"crashed before reporting a result): {exc}"
            ) from exc
        finally:
            for future in futures:
                future.cancel()
        return outputs
