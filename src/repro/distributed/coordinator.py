"""Coordinator and :class:`ClusterEngine`: streaming multi-host map-reduce.

The coordinator is the cluster's driver side.  It listens on a TCP port;
worker daemons (``repro worker --connect HOST:PORT``) dial in and register.
:class:`ClusterEngine` implements the same ``run(job, inputs)`` contract as
:class:`repro.mapreduce.engine.LocalEngine` on top of a *streaming,
work-stealing* scheduler (``docs/ARCHITECTURE.md`` has the full picture,
``docs/protocol.md`` the wire conversation):

* dispatch is pull-based: workers announce queue capacity with
  ``StealRequest`` and the coordinator grants queued tasks in ``TaskStream``
  batches — an idle worker steals whatever is queued, so a straggler holds
  at most its own prefetch pipeline while fast hosts drain the shared queue,
* steal granularity adapts to measured task throughput: the coordinator
  keeps a per-job-class estimate of seconds-per-input from previous runs
  and sizes task chunks toward :data:`TARGET_TASK_SECONDS` apiece,
* the shuffle is *overlapped*: each map result is folded into the run's
  :class:`~repro.mapreduce.engine.ShuffleFolder` the moment it lands, so by
  the time the last map task finishes the shuffle is already done and
  reduce tasks dispatch immediately — no barrier wave.  The fold is
  order-insensitive (the very folder the local engine shuffles with), which
  keeps grouped values — and therefore reduce outputs — bit-identical to
  serial no matter which host ran which task or in which order results
  arrived,
* workers may join mid-run: a daemon that registers while a run is active
  receives ``JoinRun`` immediately and steals from the same queue,
* a worker that dies mid-task (socket loss or heartbeat silence) has its
  outstanding tasks requeued at the front for other workers, each task up
  to :data:`MAX_TASK_ATTEMPTS` hosts; a task that *fails* (raises) is a
  deterministic job bug and fails the run with the original traceback,
  library errors keeping their type — the exact error contract of the
  process executor.

``local_cluster(n_hosts)`` is the test/CI harness: it binds an ephemeral
port, spawns ``n_hosts`` localhost worker daemons, waits for registration,
and tears everything down leak-free (workers shut down, listener closed,
spool directory removed).
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import os
import secrets
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from .. import obs
from ..mapreduce.engine import LocalEngine, ShuffleFolder, task_error
from ..mapreduce.job import JobStats, MapReduceJob
from ..mapreduce.plane import DEFAULT_MIN_BYTES, dumps
from ..utils.errors import ClusterUnavailableError, MapReduceError
from . import faults, protocol
from .dataplane import ArtifactPlane
from .faults import FaultPlan
from .retry import Backoff
from .protocol import (
    Artifact,
    ArtifactRequest,
    Heartbeat,
    Hello,
    JoinRun,
    Shutdown,
    StealRequest,
    Task,
    TaskResult,
    TaskStream,
    Welcome,
    WireError,
)

#: A task is retried on this many distinct workers before the run fails
#: (a task whose *input* reliably kills its host must not take the whole
#: cluster down one worker at a time).
MAX_TASK_ATTEMPTS = 3

#: Seconds between worker heartbeats (announced in the Welcome message).
HEARTBEAT_INTERVAL = 1.0

#: Receive timeout on a worker connection: if the socket stays completely
#: silent (no heartbeat, no steal request, no result) this long, the worker
#: is declared dead and its outstanding tasks are requeued for the others.
#: Heartbeats keep flowing *during* task execution, so long tasks do not
#: trip this — only a hung or vanished worker does.
HEARTBEAT_TIMEOUT = 30.0

#: Default wait for the requested number of workers to register.
CONNECT_TIMEOUT = 60.0

#: How long a dialing-in connection gets to complete the registration
#: handshake (preamble + Hello) before the coordinator drops it — a port
#: scanner or a wedged peer must not pin a registration thread forever.
REGISTRATION_TIMEOUT = 10.0

#: Per-task execution deadline: a worker that holds granted tasks without
#: reporting a single result for this long is declared stuck and loses its
#: tasks to the requeue — even while its heartbeats keep arriving.
#: Heartbeats prove the *process* is alive; progress proves the *work* is.
#: ``None`` disables the deadline.
DEFAULT_TASK_DEADLINE = 300.0

#: Default coordinator address when ``REPRO_CLUSTER`` is unset.
DEFAULT_BIND = "127.0.0.1:7077"

#: Tasks a worker keeps in flight by default: one computing plus one whose
#: payload/artifacts are prefetching, so data-plane transfer overlaps
#: compute instead of serializing with it.
DEFAULT_PREFETCH_DEPTH = 2

#: Adaptive steal granularity aims for tasks of about this many seconds:
#: long enough to amortize dispatch, short enough that work stealing can
#: rebalance around a straggler before the run ends.
TARGET_TASK_SECONDS = 0.2

#: Without a throughput measurement for the job class, split the input into
#: this many tasks per worker — fine-grained enough for stealing to matter.
AUTO_TASKS_PER_WORKER = 8

#: Executors :class:`ClusterEngine` may downgrade to when the cluster is
#: unavailable (``fallback=...``).
FALLBACK_EXECUTORS = ("serial", "thread", "process")

logger = obs.get_logger(__name__)

#: Distinguishes metric label sets of coexisting coordinators/engines in
#: one process (tests run many); monotonic so snapshots stay readable.
_INSTANCE_SEQ = itertools.count(1)


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _chunk_label(chunk: list[tuple[int, tuple[Any, Any]]]) -> str:
    """Name a map chunk by its input positions and keys (for quarantine)."""
    first_index, (first_key, _) = chunk[0]
    if len(chunk) == 1:
        return f"input #{first_index}, key {_clip(repr(first_key))}"
    last_index, (last_key, _) = chunk[-1]
    return (
        f"inputs #{first_index}..#{last_index}, keys "
        f"{_clip(repr(first_key))}..{_clip(repr(last_key))}"
    )


class WorkerHandle:
    """Coordinator-side state of one registered worker connection.

    ``credit`` and ``outstanding`` are scheduler state guarded by the
    active run's condition (:class:`_RunState.cond`): credit counts
    unanswered :class:`StealRequest` capacity, ``outstanding`` holds the
    task ids granted but not yet reported, so a lost worker's tasks can be
    requeued exactly.
    """

    def __init__(
        self, sock: socket.socket, worker_id: str, pid: int, host: str
    ) -> None:
        self.sock = sock
        self.worker_id = worker_id
        self.pid = pid
        self.host = host
        self.alive = True
        self.credit = 0
        self.outstanding: set[int] = set()
        #: Last time this worker *progressed* — registered, was granted
        #: tasks, or reported a result.  Deliberately NOT advanced by
        #: heartbeats: the task deadline distinguishes a stuck worker
        #: (beating, never reporting) from a live one.
        self.last_progress = time.monotonic()
        #: Last heartbeat arrival — the liveness signal ``/healthz``
        #: reports as a heartbeat age.  Separate from ``last_progress``
        #: by design: liveness and progress are different facts.
        self.last_heartbeat = time.monotonic()
        self._send_lock = threading.Lock()

    def send(self, message: Any) -> None:
        with self._send_lock:
            protocol.send_msg(self.sock, message)

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


class _TaskState:
    """One schedulable task (map chunk or reduce group) of the active run."""

    __slots__ = (
        "kind",
        "payload",
        "n_inputs",
        "attempts",
        "done",
        "seconds",
        "losers",
        "label",
    )

    def __init__(
        self, kind: str, payload: bytes, n_inputs: int, label: str = ""
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.n_inputs = n_inputs
        self.attempts = 0
        self.done = False
        self.seconds = 0.0
        #: Distinct workers lost while this task was outstanding on them —
        #: the poison-quarantine signal (a task whose *input* kills hosts
        #: racks up distinct losers; a flaky host racks up attempts).
        self.losers: set[str] = set()
        #: Human-readable description of the task's input (chunk indices /
        #: reduce key), named in the quarantine error.
        self.label = label


class _RunState:
    """Shared bookkeeping of one run's scheduling (guarded by ``cond``).

    The scheduler has no phase barrier: ``queue`` holds whatever is
    currently stealable (map tasks, then — the moment the last map result
    lands — reduce tasks), and ``folder`` accumulates the overlapped
    shuffle as map results arrive.
    """

    def __init__(
        self,
        run_id: str,
        job: MapReduceJob,
        plane: ArtifactPlane,
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        deadline: float | None = DEFAULT_TASK_DEADLINE,
    ) -> None:
        self.run_id = run_id
        self.job = job
        self.plane = plane
        self.prefetch_depth = prefetch_depth
        #: Per-task execution deadline (seconds of grant-to-result silence
        #: tolerated per worker); ``None`` disables the check.
        self.deadline = deadline
        self.cond = threading.Condition()
        self.tasks: dict[int, _TaskState] = {}
        self.queue: deque[int] = deque()
        self.phase = "map"
        self.n_map_tasks = 0
        self.map_remaining = 0
        self.reduce_remaining = 0
        #: Reduce task ids in their deterministic (shuffle) order — outputs
        #: are flattened in this order, never in completion order.
        self.reduce_order: list[int] = []
        self.reduce_emitted: dict[int, list] = {}
        #: Overlapped shuffle: map results are folded in as they land.
        self.folder = ShuffleFolder()
        self.fold_seconds = 0.0
        self.map_inputs_done = 0
        self.map_seconds_done = 0.0
        self.error: BaseException | None = None
        self.finished = False
        #: Worker-loss events (not per-requeued-task): one worker dying with
        #: several prefetched tasks in flight is one retry, which keeps the
        #: fault-tolerance accounting deterministic under pipelining.
        self.retries = 0
        self.last_loss = ""
        self.worker_tasks: dict[str, int] = {}
        #: Steal grants (TaskStream batches) per worker id.
        self.worker_steals: dict[str, int] = {}
        #: Tracing state, latched at run start: workers are told via
        #: ``JoinRun.trace`` and arriving results' spans are re-based under
        #: ``span_id`` (the run's "cluster.run_job" span).
        self.trace_enabled = obs.enabled()
        self.span_id: int | None = None
        #: Profiling state, latched at run start like tracing: workers are
        #: told via ``JoinRun.profile`` and results' collapsed-stack counts
        #: fold into the driver profiler under ``worker:<id>`` roots.
        self.profile_enabled = obs.profile_enabled()

    def completed(self) -> int:
        return sum(1 for state in self.tasks.values() if state.done)


class Coordinator:
    """Listens for workers and schedules runs onto them.

    Locking discipline: ``_cond`` guards the worker registry and is a leaf
    lock — it may be taken while holding a run's ``cond`` but never the
    other way around.  One persistent reader thread per worker connection
    handles everything that worker says (heartbeats, steal requests,
    results, artifact fetches); there are no per-phase dispatch threads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spool_dir: str | Path | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
    ) -> None:
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        # Env-steered chaos (CI): a REPRO_FAULT_PLAN in the environment
        # arms this process's hooks under the coordinator role.
        faults.install_from_env(role="coordinator")
        self._owns_spool = spool_dir is None
        if spool_dir is None:
            self.spool_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-spool-"))
        else:
            self.spool_dir = Path(spool_dir)
            self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._workers: list[WorkerHandle] = []
        self._cond = threading.Condition()
        # One run at a time: concurrent runs on one coordinator (two
        # application threads querying through the same shared engine) take
        # turns instead of interleaving their queues.
        self._run_lock = threading.Lock()
        #: The active run, readable by reader threads (guarded by ``_cond``).
        self._run: _RunState | None = None
        #: Live artifact planes by run id, for serving ArtifactRequests.
        self._planes: dict[str, ArtifactPlane] = {}
        #: Measured seconds-per-map-input by job class, the signal behind
        #: adaptive steal granularity (EMA across runs).
        self._throughput: dict[str, float] = {}
        self.closed = False
        self.name = f"c{next(_INSTANCE_SEQ)}"
        # Cumulative retry count lives in the metrics registry; the
        # ``total_retries`` attribute of old is preserved as a thin view.
        self._retries_counter = obs.counter(
            "repro.cluster.retries", coordinator=self.name
        )
        self.last_run_worker_tasks: dict[str, int] = {}
        self.last_run_worker_steals: dict[str, int] = {}
        #: Inputs quarantined as poison across this coordinator's runs
        #: (task kind + input label), surfaced on ``/healthz``.
        self.quarantined_inputs: list[str] = []
        #: Fleet metrics view: per-worker registry replicas folded from
        #: the heartbeat deltas (advisory telemetry only).
        self.fleet = obs.FleetAggregator()
        self._run_seq = 0
        try:
            self._listener = socket.create_server((host, port), reuse_port=False)
        except OSError as exc:
            raise MapReduceError(
                f"cannot bind cluster coordinator to {host}:{port}: {exc} "
                "(is another coordinator already running there?)"
            ) from exc
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-coordinator"
        )
        self._accept_thread.start()
        # Live observability is opt-in: with REPRO_METRICS_PORT unset this
        # is a dict lookup and no exporter (or socket) ever exists.
        exporter = obs.ensure_from_env()
        if exporter is not None:
            exporter.add_source(self.fleet.snapshot)
            exporter.add_health(f"coordinator:{self.name}", self.health_snapshot)

    @property
    def total_retries(self) -> int:
        """Worker-loss retry events across every run (registry-backed view)."""
        return self._retries_counter.value

    # -- registration --------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            threading.Thread(target=self._register, args=(conn,), daemon=True).start()

    def _register(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(REGISTRATION_TIMEOUT)
            protocol.recv_preamble(conn)
            protocol.send_preamble(conn)
            hello = protocol.recv_msg(conn)
            if not isinstance(hello, Hello):
                raise WireError(f"expected Hello, got {type(hello).__name__}")
            protocol.send_msg(
                conn,
                Welcome(
                    heartbeat_interval=self.heartbeat_interval,
                    spool_dir=str(self.spool_dir),
                ),
            )
            conn.settimeout(self.heartbeat_timeout)
        except (WireError, OSError):
            with contextlib.suppress(OSError):
                conn.close()
            return
        handle = WorkerHandle(conn, hello.worker_id, hello.pid, hello.host)
        with self._cond:
            if self.closed:
                handle.close()
                return
            self._workers.append(handle)
            run = self._run
            self._cond.notify_all()
        threading.Thread(
            target=self._reader_loop,
            args=(handle,),
            daemon=True,
            name=f"repro-reader-{handle.worker_id}",
        ).start()
        # Elastic join: a worker registering mid-run is attached to the
        # active run immediately — its StealRequest answer starts pulling
        # queued tasks off the shared queue.
        if run is not None:
            try:
                handle.send(
                    JoinRun(
                        run_id=run.run_id,
                        phase=run.phase,
                        prefetch_depth=run.prefetch_depth,
                        trace=run.trace_enabled,
                        profile=run.profile_enabled,
                    )
                )
            except (WireError, OSError):
                self._mark_dead(handle)

    def alive_workers(self) -> list[WorkerHandle]:
        with self._cond:
            return [w for w in self._workers if w.alive]

    def worker_pids(self) -> list[int]:
        """PIDs of the currently registered, alive workers."""
        return [w.pid for w in self.alive_workers()]

    def wait_for_workers(self, n: int, timeout: float) -> None:
        """Block until ``n`` workers are registered and alive.

        Raises :class:`ClusterUnavailableError` on timeout — the signal
        :class:`ClusterEngine` downgrades on when a fallback is declared.
        The poll interval backs off with jitter (registration also
        notifies the condition, so a worker arriving is seen immediately;
        the poll only bounds how late the timeout itself fires).
        """
        deadline = time.monotonic() + timeout
        poll = Backoff(base=0.05, cap=0.5)
        with self._cond:
            while len([w for w in self._workers if w.alive]) < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    alive = len([w for w in self._workers if w.alive])
                    raise ClusterUnavailableError(
                        f"cluster coordinator at {self.address[0]}:"
                        f"{self.address[1]} has {alive} worker(s) after "
                        f"{timeout:.0f}s, needs {n} — start workers with "
                        f"`repro worker --connect "
                        f"{self.address[0]}:{self.address[1]}`"
                    )
                self._cond.wait(min(remaining, max(0.02, poll.next_delay())))

    def next_run_id(self) -> str:
        with self._cond:
            self._run_seq += 1
            return f"run{self._run_seq:04d}-{secrets.token_hex(4)}"

    def _active_run(self) -> _RunState | None:
        with self._cond:
            return self._run

    # -- per-worker reader ---------------------------------------------------

    def _reader_loop(self, handle: WorkerHandle) -> None:
        """Pump one worker's connection for the life of the registration."""
        try:
            while handle.alive:
                message = protocol.recv_msg(handle.sock)
                if message is None:
                    raise WireError("worker closed the connection")
                faults.fire(
                    "coordinator.handler",
                    detail=type(message).__name__,
                    sock=handle.sock,
                )
                if isinstance(message, Heartbeat):
                    handle.last_heartbeat = time.monotonic()
                    # Metrics piggyback.  Advisory only — a malformed or
                    # duplicate delta is dropped, and heartbeats still
                    # never advance ``last_progress``.
                    if message.metrics is not None and self.fleet.apply(
                        handle.worker_id, message.metrics
                    ):
                        obs.counter(
                            "repro.cluster.metrics_deltas",
                            worker=handle.worker_id,
                        ).inc()
                    continue
                if isinstance(message, ArtifactRequest):
                    self._serve_artifact(handle, message)
                elif isinstance(message, StealRequest):
                    self._on_steal(handle, message)
                elif isinstance(message, TaskResult):
                    self._on_result(handle, message)
                else:
                    raise WireError(
                        f"unexpected {type(message).__name__} from worker "
                        f"{handle.worker_id!r}"
                    )
        except (WireError, OSError, TimeoutError) as exc:
            self._on_worker_lost(handle, exc)

    def _serve_artifact(self, handle: WorkerHandle, request: ArtifactRequest) -> None:
        # Artifact names are "<run_id>-aNNNNN"; route to that run's plane.
        run_id = request.name.rpartition("-a")[0]
        plane = self._planes.get(run_id)
        if plane is None:
            handle.send(
                Artifact(
                    name=request.name,
                    error=f"artifact {request.name!r} belongs to a finished run",
                )
            )
            return
        try:
            data = plane.payload(request.name)
            digest = plane.checksum(request.name)
        except (MapReduceError, OSError) as exc:
            handle.send(Artifact(name=request.name, error=str(exc)))
            return
        # The fault hook mangles *after* the digest is taken: an injected
        # byte flip ships with the honest checksum, which is exactly what
        # the worker-side verification must catch and re-fetch.
        data = faults.bytes_out("dataplane.serve", data, detail=request.name)
        run = self._active_run()
        serve_parent = run.span_id if run is not None and run.run_id == run_id else None
        with obs.span(
            "artifact.serve",
            parent=serve_parent,
            artifact=request.name,
            worker=handle.worker_id,
            n_bytes=len(data),
        ):
            handle.send(Artifact(name=request.name, data=data, sha256=digest))
        obs.counter("repro.dataplane.served_bytes").inc(len(data))
        obs.counter("repro.dataplane.served").inc()

    def _on_steal(self, handle: WorkerHandle, request: StealRequest) -> None:
        run = self._active_run()
        if run is None:
            return
        with run.cond:
            handle.credit += max(1, request.capacity)
            self._grant_locked(run, handle)

    def _on_result(self, handle: WorkerHandle, message: TaskResult) -> None:
        run = self._active_run()
        if run is None or message.run_id != run.run_id:
            return  # stale result from a run that already ended
        with run.cond:
            handle.last_progress = time.monotonic()
            handle.outstanding.discard(message.task_id)
            state = run.tasks.get(message.task_id)
            if state is None or state.done:
                run.cond.notify_all()
                return
            if message.status == "err":
                if run.error is None:
                    run.error = task_error(
                        state.kind,
                        f"on cluster worker {handle.worker_id!r} "
                        f"(host {handle.host})",
                        message.traceback,
                        message.original,
                    )
                run.cond.notify_all()
                return
            state.done = True
            state.seconds = message.seconds
            run.worker_tasks[handle.worker_id] = (
                run.worker_tasks.get(handle.worker_id, 0) + 1
            )
            if run.trace_enabled:
                self._record_task_spans(run, handle, message, state.kind)
            if run.profile_enabled and message.profile:
                # Fold the task's worker-side samples into the driver
                # profile, rooted under the worker's id so fleet stacks
                # stay distinguishable.  No-op if the driver's profiler
                # already ended.
                obs.active_profiler().add_counts(
                    message.profile, prefix=f"worker:{handle.worker_id}"
                )
            if state.kind == "map":
                run.map_remaining -= 1
                run.map_inputs_done += state.n_inputs
                run.map_seconds_done += message.seconds
                # Overlapped shuffle: fold this map output in now, while
                # other map tasks still run.
                start = time.perf_counter()
                run.folder.add(message.result)
                fold_delta = time.perf_counter() - start
                run.fold_seconds += fold_delta
                obs.record_span(
                    "shuffle.fold",
                    fold_delta,
                    parent=run.span_id,
                    task_id=message.task_id,
                )
                if run.map_remaining == 0:
                    self._seed_reduce_locked(run)
                    self._grant_all_locked(run)
            else:
                run.reduce_remaining -= 1
                run.reduce_emitted[message.task_id] = message.result
                if run.reduce_remaining == 0:
                    run.finished = True
            run.cond.notify_all()

    @staticmethod
    def _record_task_spans(
        run: _RunState, handle: WorkerHandle, message: TaskResult, kind: str
    ) -> None:
        """Re-base a result's worker-side spans onto the driver clock.

        The worker reports ``seconds`` and span offsets on *its* clock; the
        only driver-clock anchor is the result's arrival time, so the task
        span is placed ending now with the reported duration, parented
        under the run's span, and the worker's sub-spans land inside it at
        their offsets.  One lane (track) per worker id.
        """
        trace = obs.current_trace()
        if trace is None:
            return
        track = f"worker:{handle.worker_id}"
        task_start = trace.rel_now() - message.seconds
        task_span = trace.add_span(
            f"{kind}.task",
            task_start,
            message.seconds,
            parent_id=run.span_id,
            track=track,
            attrs={"task_id": message.task_id, "worker": handle.worker_id},
        )
        for name, offset, duration, attrs in message.spans:
            trace.add_span(
                name,
                task_start + offset,
                duration,
                parent_id=task_span,
                track=track,
                attrs=dict(attrs),
            )

    def _seed_reduce_locked(self, run: _RunState) -> None:
        """Finalize the shuffle and enqueue reduce tasks (run.cond held)."""
        start = time.perf_counter()
        grouped = run.folder.finalize()
        finalize_delta = time.perf_counter() - start
        run.fold_seconds += finalize_delta
        obs.record_span(
            "shuffle.finalize",
            finalize_delta,
            parent=run.span_id,
            n_groups=len(grouped),
        )
        run.phase = "reduce"
        next_id = run.n_map_tasks
        for key, values in grouped:
            payload = dumps(("reduce", run.job, (key, values)), run.plane)
            run.tasks[next_id] = _TaskState(
                "reduce", payload, 1, label=f"group key {_clip(repr(key))}"
            )
            run.reduce_order.append(next_id)
            run.queue.append(next_id)
            next_id += 1
        run.reduce_remaining = len(grouped)
        if not grouped:
            run.finished = True

    def _grant_locked(self, run: _RunState, handle: WorkerHandle) -> None:
        """Grant queued tasks against a worker's credit (run.cond held)."""
        if run.error is not None or not handle.alive:
            return
        batch: list[Task] = []
        while handle.credit > 0 and run.queue:
            task_id = run.queue.popleft()
            batch.append(Task(task_id=task_id, payload=run.tasks[task_id].payload))
            handle.outstanding.add(task_id)
            handle.credit -= 1
        if not batch:
            return
        try:
            faults.fire("coordinator.dispatch", sock=handle.sock)
            with obs.span(
                "scheduler.dispatch",
                parent=run.span_id,
                worker=handle.worker_id,
                n_tasks=len(batch),
            ):
                handle.send(TaskStream(run_id=run.run_id, tasks=batch))
            run.worker_steals[handle.worker_id] = (
                run.worker_steals.get(handle.worker_id, 0) + 1
            )
            # A fresh grant restarts the worker's execution deadline: it
            # now owes a result for new work, measured from this moment.
            handle.last_progress = time.monotonic()
        except (WireError, OSError):
            # The send failed, so the tasks never left: requeue them at the
            # front without burning an attempt.  The reader thread notices
            # the dead socket and handles anything already outstanding.
            for task in reversed(batch):
                handle.outstanding.discard(task.task_id)
                run.queue.appendleft(task.task_id)
            self._mark_dead(handle)

    def _grant_all_locked(self, run: _RunState) -> None:
        """Offer the queue to every worker with credit (run.cond held)."""
        for handle in self.alive_workers():
            if not run.queue:
                return
            if handle.credit > 0:
                self._grant_locked(run, handle)

    def _on_worker_lost(self, handle: WorkerHandle, exc: BaseException) -> None:
        was_alive = handle.alive
        self._mark_dead(handle)
        if self.closed or not was_alive:
            return
        run = self._active_run()
        if run is None:
            return
        with run.cond:
            lost = sorted(
                task_id
                for task_id in handle.outstanding
                if task_id in run.tasks and not run.tasks[task_id].done
            )
            handle.outstanding.clear()
            if not lost:
                run.cond.notify_all()
                return
            # One retry per loss event, however many tasks were in flight.
            run.retries += 1
            obs.counter("repro.cluster.worker_losses", worker=handle.worker_id).inc()
            run.last_loss = (
                f"worker {handle.worker_id!r} (pid {handle.pid}) lost with "
                f"{len(lost)} {run.phase} task(s) in flight: {exc}"
            )
            logger.warning("requeueing after loss: %s", run.last_loss)
            for task_id in reversed(lost):
                state = run.tasks[task_id]
                state.attempts += 1
                state.losers.add(handle.worker_id)
                # Quarantine: a task that took down MAX_TASK_ATTEMPTS
                # *distinct* workers is poison — its input reliably kills
                # hosts, so fail fast naming the input instead of feeding
                # it the rest of the cluster.  The total-attempts backstop
                # (2x) catches one flaky host rejoining and dying forever.
                if (
                    len(state.losers) >= MAX_TASK_ATTEMPTS
                    or state.attempts >= 2 * MAX_TASK_ATTEMPTS
                ):
                    run.error = MapReduceError(
                        f"poison task quarantined: {state.kind} task "
                        f"{task_id} ({state.label or 'unlabelled input'}) "
                        f"took down {len(state.losers)} distinct worker(s) "
                        f"{sorted(state.losers)} over {state.attempts} "
                        f"attempt(s); last: {run.last_loss}"
                    )
                    self.quarantined_inputs.append(
                        f"{state.kind} task {task_id}: "
                        f"{state.label or 'unlabelled input'}"
                    )
                else:
                    run.queue.appendleft(task_id)
            if run.error is None and not self.alive_workers():
                run.error = ClusterUnavailableError(
                    f"all cluster workers died during the {run.phase} phase "
                    f"({run.completed()}/{len(run.tasks)} tasks finished; "
                    f"last loss: {run.last_loss})"
                )
            if run.error is None:
                self._grant_all_locked(run)
            run.cond.notify_all()

    def _requeue_stuck_locked(self, run: _RunState) -> None:
        """Enforce the per-task deadline (``run.cond`` held, re-entrant).

        A worker whose oldest unanswered grant is older than the deadline
        is declared lost exactly like a silent socket: connection closed,
        tasks requeued, attempts/quarantine accounting identical.  Called
        from the scheduling loop's wait tick.
        """
        if run.deadline is None:
            return
        now = time.monotonic()
        stuck = [
            handle
            for handle in self.alive_workers()
            if handle.outstanding and now - handle.last_progress > run.deadline
        ]
        for handle in stuck:
            logger.warning(
                "worker %r exceeded the %.1fs task deadline with %d task(s) "
                "outstanding (heartbeating but not reporting); requeueing",
                handle.worker_id,
                run.deadline,
                len(handle.outstanding),
            )
            self._on_worker_lost(
                handle,
                MapReduceError(
                    f"exceeded the {run.deadline:.1f}s task execution "
                    "deadline (worker heartbeating but not reporting "
                    "results)"
                ),
            )

    # -- run scheduling ------------------------------------------------------

    def run_job(
        self,
        job: MapReduceJob,
        inputs: list[tuple[Any, Any]],
        plane: ArtifactPlane,
        run_id: str,
        granularity: int | str = "auto",
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        task_deadline: float | None = DEFAULT_TASK_DEADLINE,
    ) -> tuple[list[tuple[Any, Any]], JobStats, int]:
        """Schedule one job end to end; returns (outputs, stats, retries).

        Outputs are flattened in the deterministic reduce order (shuffle
        key order), never in completion order — scheduling never leaks
        into results.

        ``task_deadline`` bounds how long any worker may hold granted
        tasks without reporting a result; a worker past it is treated as
        lost (its connection is closed and its tasks requeued) even while
        its heartbeats keep arriving — heartbeats prove the process lives,
        the deadline proves the work does.
        """
        stats = JobStats()
        if not inputs:
            return [], stats, 0
        wall_start = time.perf_counter()
        with self._run_lock, obs.span(
            "cluster.run_job", run_id=run_id, job=type(job).__name__
        ) as run_span:
            run = self._start_run(
                job, inputs, plane, run_id, granularity,
                max(1, prefetch_depth), task_deadline,
            )
            run.span_id = run_span.span_id
            workers = self.alive_workers()
            join = JoinRun(
                run_id=run_id,
                phase="map",
                prefetch_depth=run.prefetch_depth,
                trace=run.trace_enabled,
                profile=run.profile_enabled,
            )
            for handle in workers:
                try:
                    handle.send(join)
                except (WireError, OSError):
                    self._mark_dead(handle)
            try:
                with run.cond:
                    while not run.finished and run.error is None:
                        if not self.alive_workers():
                            run.error = ClusterUnavailableError(
                                "all cluster workers died or disconnected "
                                f"during the {run.phase} phase "
                                f"({run.completed()}/{len(run.tasks)} tasks "
                                "finished)"
                            )
                            break
                        self._requeue_stuck_locked(run)
                        run.cond.wait(0.25)
            finally:
                with self._cond:
                    self._run = None
                self._planes.pop(run_id, None)
                # Reset per-run scheduler state between runs (credit left
                # over from an empty queue, outstanding grants whose late
                # results the run_id check will discard).
                with run.cond:
                    for handle in self.alive_workers():
                        handle.credit = 0
                        handle.outstanding = set()
                self._retries_counter.inc(run.retries)
                for worker, count in run.worker_tasks.items():
                    obs.counter(
                        "repro.cluster.worker_tasks", worker=worker
                    ).inc(count)
                for worker, count in run.worker_steals.items():
                    obs.counter(
                        "repro.cluster.steal_grants", worker=worker
                    ).inc(count)
                self.last_run_worker_tasks = dict(run.worker_tasks)
                self.last_run_worker_steals = dict(run.worker_steals)
            if run.error is not None:
                raise run.error
            self._record_throughput(run)
            stats.n_map_chunks = run.n_map_tasks
            stats.map_task_seconds.extend(
                run.tasks[task_id].seconds for task_id in range(run.n_map_tasks)
            )
            stats.reduce_task_seconds.extend(
                run.tasks[task_id].seconds for task_id in run.reduce_order
            )
            stats.shuffle_seconds = run.fold_seconds
            outputs = [
                pair
                for task_id in run.reduce_order
                for pair in run.reduce_emitted[task_id]
            ]
            stats.n_outputs = len(outputs)
            stats.wall_seconds = time.perf_counter() - wall_start
            run_span.set(n_tasks=len(run.tasks), retries=run.retries)
            return outputs, stats, run.retries

    def _start_run(
        self,
        job: MapReduceJob,
        inputs: list[tuple[Any, Any]],
        plane: ArtifactPlane,
        run_id: str,
        granularity: int | str,
        prefetch_depth: int,
        task_deadline: float | None = DEFAULT_TASK_DEADLINE,
    ) -> _RunState:
        size = self._resolve_granularity(job, len(inputs), granularity)
        indexed = list(enumerate(inputs))
        chunks = [indexed[lo : lo + size] for lo in range(0, len(indexed), size)]
        run = _RunState(run_id, job, plane, prefetch_depth, task_deadline)
        for task_id, chunk in enumerate(chunks):
            payload = dumps(("map", job, chunk), plane)
            run.tasks[task_id] = _TaskState(
                "map", payload, len(chunk), label=_chunk_label(chunk)
            )
            run.queue.append(task_id)
        run.n_map_tasks = len(chunks)
        run.map_remaining = len(chunks)
        self._planes[run_id] = plane
        with self._cond:
            if self.closed:
                raise MapReduceError("coordinator is closed")
            self._run = run
        return run

    def _resolve_granularity(
        self, job: MapReduceJob, n_inputs: int, spec: int | str
    ) -> int:
        """Inputs per map task: fixed when ``spec`` is an int, else sized
        from measured throughput toward :data:`TARGET_TASK_SECONDS`."""
        if isinstance(spec, int):
            return max(1, spec)
        n_hosts = max(1, len(self.alive_workers()))
        per_input = self._throughput.get(type(job).__name__)
        if per_input and per_input > 0:
            size = max(1, int(TARGET_TASK_SECONDS / per_input))
        else:
            size = math.ceil(n_inputs / (n_hosts * AUTO_TASKS_PER_WORKER))
        # Never coarser than two tasks per host: stealing needs slack.
        cap = max(1, math.ceil(n_inputs / (n_hosts * 2)))
        return max(1, min(size, cap))

    def _record_throughput(self, run: _RunState) -> None:
        if not run.map_inputs_done or run.map_seconds_done <= 0:
            return
        sample = run.map_seconds_done / run.map_inputs_done
        key = type(run.job).__name__
        prior = self._throughput.get(key)
        self._throughput[key] = sample if prior is None else 0.5 * prior + 0.5 * sample

    def _mark_dead(self, handle: WorkerHandle) -> None:
        handle.close()
        with self._cond:
            self._cond.notify_all()

    # -- live observability --------------------------------------------------

    def health_snapshot(self) -> dict[str, Any]:
        """The coordinator's ``/healthz`` payload (JSON-able, advisory).

        Worker liveness is judged by heartbeat age against the heartbeat
        timeout — the same signal the reader timeout enforces, read
        instead of awaited.  Lock order: worker/run refs are grabbed under
        ``_cond`` (a leaf lock) and released before ``run.cond`` is taken.
        """
        now = time.monotonic()
        with self._cond:
            workers = list(self._workers)
            run = self._run
        worker_info: dict[str, Any] = {}
        live = 0
        stale = 0
        for handle in workers:
            age = now - handle.last_heartbeat
            is_live = handle.alive and age < self.heartbeat_timeout
            live += is_live
            stale += handle.alive and not is_live
            worker_info[handle.worker_id] = {
                "live": is_live,
                "connected": handle.alive,
                "heartbeat_age_seconds": round(age, 3),
                "outstanding_tasks": len(handle.outstanding),
                "host": handle.host,
                "pid": handle.pid,
            }
        payload: dict[str, Any] = {
            "status": "degraded" if stale or (workers and not live) else "ok",
            "address": f"{self.address[0]}:{self.address[1]}",
            "live_workers": live,
            "workers": worker_info,
            "quarantined_inputs": list(self.quarantined_inputs),
        }
        if run is not None:
            with run.cond:
                payload["run"] = {
                    "run_id": run.run_id,
                    "phase": run.phase,
                    "completed_tasks": run.completed(),
                    "total_tasks": len(run.tasks),
                    "queued_tasks": len(run.queue),
                    "retries": run.retries,
                }
        return payload

    # -- lifecycle -----------------------------------------------------------

    def end_run(self, run_id: str) -> None:
        """Tell every live worker to drop the run's queue and artifacts."""
        self._planes.pop(run_id, None)
        for handle in self.alive_workers():
            try:
                handle.send(protocol.EndRun(run_id=run_id))
            except (WireError, OSError):
                self._mark_dead(handle)

    def close(self, shutdown_workers: bool = False) -> None:
        """Stop listening; optionally tell workers to exit for good.

        Without ``shutdown_workers`` the daemons merely lose this
        coordinator and keep redialing the address for their retry window —
        that is what lets `repro index` and a later `repro query` share one
        set of workers.
        """
        with self._cond:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            self._workers.clear()
        exporter = obs.active_exporter()
        if exporter is not None:
            exporter.remove_source(self.fleet.snapshot)
            exporter.remove_health(f"coordinator:{self.name}")
        # shutdown() before close(): a blocked accept() keeps the listening
        # socket's file description alive past close() on Linux, leaving the
        # port accepting ghost connections; shutdown unblocks it (EINVAL)
        # so the join below guarantees the port is actually released.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        self._accept_thread.join(timeout=5.0)
        for handle in workers:
            if shutdown_workers and handle.alive:
                with contextlib.suppress(WireError, OSError):
                    handle.send(Shutdown(reason="coordinator closing"))
            handle.close()
        if self._owns_spool:
            shutil.rmtree(self.spool_dir, ignore_errors=True)


# -- shared coordinators (env-steered engines) -------------------------------

_SHARED: dict[tuple[str, int], Coordinator] = {}
_SHARED_LOCK = threading.Lock()


def _close_shared() -> None:  # pragma: no cover - interpreter exit
    with _SHARED_LOCK:
        coordinators = list(_SHARED.values())
        _SHARED.clear()
    for coordinator in coordinators:
        coordinator.close(shutdown_workers=False)


atexit.register(_close_shared)


def shared_coordinator(host: str, port: int) -> Coordinator:
    """The process-wide coordinator for one bind address.

    Environment-steered engines (``REPRO_EXECUTOR=cluster``) are created
    per call site; sharing the coordinator keeps one listener (and one pool
    of connected workers) per address per process, exactly like the shm
    plane keeps one segment per array.  Closed coordinators are replaced.
    """
    key = (host, port)
    with _SHARED_LOCK:
        coordinator = _SHARED.get(key)
        if coordinator is None or coordinator.closed:
            coordinator = Coordinator(host=host, port=port)
            _SHARED[key] = coordinator
        return coordinator


# -- the engine --------------------------------------------------------------


class ClusterEngine:
    """Runs map-reduce jobs on a coordinator/worker cluster over TCP.

    Implements the same ``run(job, inputs) -> (outputs, stats)`` contract as
    :class:`~repro.mapreduce.engine.LocalEngine`, so ``Corpus.build_index``,
    ``CorpusIndex.query`` and the persist jobs work unchanged — outputs are
    bit-identical to serial execution under a fixed seed, including under
    work stealing, worker loss, and elastic join (the shuffle's tag order,
    not scheduling order, decides every grouping and every output position).

    Parameters
    ----------
    bind:
        ``HOST:PORT`` the coordinator listens on.  Port ``0`` binds an
        ephemeral port (read it back from :attr:`address`).
    n_workers:
        Minimum number of registered workers to wait for before the first
        dispatch.  All connected workers are used, including ones that
        join mid-run.
    steal_granularity:
        Inputs per stealable map task.  ``"auto"`` (default) sizes tasks
        from measured per-input seconds of previous runs of the same job
        class, targeting ~0.2 s per task; an int pins it.
    prefetch_depth:
        Tasks a worker keeps in flight: one computing, the rest
        prefetching their payload artifacts (data plane overlaps compute).
    min_artifact_bytes:
        Arrays at least this large ship through the artifact data plane
        instead of the per-task pickle.
    shared:
        Reuse the process-wide coordinator for ``bind`` (how env-steered
        engines share one listener); ``False`` gives this engine a private
        coordinator that :meth:`close` fully owns.
    task_deadline:
        Seconds a worker may hold granted tasks without reporting a
        result before it is declared stuck and loses them to the requeue
        (heartbeats alone do not count as progress).  ``None`` disables
        the deadline.
    fallback:
        ``"serial"``/``"thread"``/``"process"`` reruns the job on that
        local executor when the cluster is *unavailable* (no workers
        registered in time, or every worker lost mid-run), logging the
        downgrade; ``None`` (default) propagates
        :class:`~repro.utils.errors.ClusterUnavailableError`.  Job bugs
        and poison tasks never fall back — they would fail anywhere.
    heartbeat_interval:
        Seconds between worker heartbeats, announced to every worker in
        the registration ``Welcome``.  Metrics deltas ship on heartbeats,
        so this is also the fleet-telemetry refresh cadence.
        Must be > 0 and below ``heartbeat_timeout``.
    heartbeat_timeout:
        Seconds of connection silence after which a worker is declared
        lost.  Like ``heartbeat_interval``, applied to this engine's
        *private* coordinator (a ``shared=True`` engine reuses the
        process-wide coordinator and its existing cadence and timeout).
    """

    executor = "cluster"

    def __init__(
        self,
        bind: str = DEFAULT_BIND,
        n_workers: int = 1,
        min_artifact_bytes: int = DEFAULT_MIN_BYTES,
        connect_timeout: float = CONNECT_TIMEOUT,
        shared: bool = False,
        steal_granularity: int | str = "auto",
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        task_deadline: float | None = DEFAULT_TASK_DEADLINE,
        fallback: str | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
    ) -> None:
        self._bind_host, self._bind_port = protocol.parse_address(bind, variable="bind")
        if not isinstance(n_workers, int) or n_workers < 1:
            raise MapReduceError(
                f"n_workers must be an integer >= 1, got {n_workers!r}"
            )
        if steal_granularity != "auto":
            if not isinstance(steal_granularity, int) or steal_granularity < 1:
                raise MapReduceError(
                    "steal_granularity must be a positive int or 'auto'"
                )
        if not isinstance(prefetch_depth, int) or prefetch_depth < 1:
            raise MapReduceError("prefetch_depth must be an integer >= 1")
        if min_artifact_bytes < 1:
            raise MapReduceError("min_artifact_bytes must be >= 1")
        if task_deadline is not None and not task_deadline > 0:
            raise MapReduceError(
                f"task_deadline must be > 0 seconds or None, got {task_deadline!r}"
            )
        if fallback is not None and fallback not in FALLBACK_EXECUTORS:
            raise MapReduceError(
                f"fallback must be one of {', '.join(FALLBACK_EXECUTORS)} "
                f"or None, got {fallback!r}"
            )
        if not heartbeat_interval > 0:
            raise MapReduceError(
                f"heartbeat_interval must be > 0 seconds, "
                f"got {heartbeat_interval!r}"
            )
        if heartbeat_interval >= heartbeat_timeout:
            raise MapReduceError(
                f"heartbeat_interval ({heartbeat_interval}s) must be below "
                f"heartbeat_timeout ({heartbeat_timeout}s), or every worker "
                "is declared lost between beats"
            )
        self.n_workers = n_workers
        self.steal_granularity = steal_granularity
        self.prefetch_depth = prefetch_depth
        self.min_artifact_bytes = min_artifact_bytes
        self.connect_timeout = connect_timeout
        self.shared = shared
        self.task_deadline = task_deadline
        self.fallback = fallback
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._coordinator: Coordinator | None = None
        self._assembled = False
        # Numeric run accounting lives in the metrics registry; the old
        # ``last_run_retries`` attribute survives as a thin view.  The dict
        # and string fields below stay plain attributes (consumers check
        # ``is None`` and match substrings) but are mirrored into counters.
        self.name = f"e{next(_INSTANCE_SEQ)}"
        self._retries_gauge = obs.gauge(
            "repro.cluster.last_run_retries", engine=self.name
        )
        self.last_run_worker_tasks: dict[str, int] = {}
        self.last_run_worker_steals: dict[str, int] = {}
        #: Why the last run downgraded to the fallback executor, or ``None``
        #: when it ran on the cluster.
        self.last_run_fallback: str | None = None
        #: :class:`repro.obs.RunReport` of the most recent ``run`` call.
        self.last_run_report: obs.RunReport | None = None
        self._last_n_artifacts = 0

    @property
    def last_run_retries(self) -> int:
        """Worker-loss retries of the most recent cluster run (gauge view)."""
        return int(self._retries_gauge.value)

    @last_run_retries.setter
    def last_run_retries(self, value: int) -> None:
        self._retries_gauge.set(value)

    @property
    def is_parallel(self) -> bool:
        """True when more than one host executes tasks."""
        return self.n_workers > 1

    @property
    def coordinator(self) -> Coordinator:
        """The live coordinator, binding the listener on first use."""
        if self._coordinator is None or self._coordinator.closed:
            if self.shared:
                self._coordinator = shared_coordinator(self._bind_host, self._bind_port)
            else:
                self._coordinator = Coordinator(
                    host=self._bind_host,
                    port=self._bind_port,
                    heartbeat_interval=self.heartbeat_interval,
                    heartbeat_timeout=self.heartbeat_timeout,
                )
            # Engine-level health (fallback state) rides on the exporter
            # the coordinator may have just started from the environment.
            exporter = obs.active_exporter()
            if exporter is not None:
                exporter.add_health(f"engine:{self.name}", self._health_snapshot)
        return self._coordinator

    def _health_snapshot(self) -> dict[str, Any]:
        return {
            "status": "ok" if self.last_run_fallback is None else "degraded",
            "executor": self.executor,
            "fallback": self.last_run_fallback,
            "last_run_retries": self.last_run_retries,
        }

    @property
    def address(self) -> tuple[str, int]:
        """The coordinator's actual (host, port) — resolves port 0."""
        return self.coordinator.address

    def start(self) -> "ClusterEngine":
        """Bind the listener now (otherwise it happens on first run)."""
        _ = self.coordinator
        return self

    def wait_for_workers(
        self, n: int | None = None, timeout: float | None = None
    ) -> None:
        self.coordinator.wait_for_workers(
            n if n is not None else self.n_workers,
            timeout if timeout is not None else self.connect_timeout,
        )

    def run(
        self, job: MapReduceJob, inputs: Iterable[tuple[Any, Any]]
    ) -> tuple[list[tuple[Any, Any]], JobStats]:
        """Execute ``job`` over ``inputs`` on the cluster.

        With ``fallback`` declared, a cluster that is *unavailable* —
        workers never assembled, or every worker lost mid-run — downgrades
        to the named local executor instead of raising: the job reruns
        from scratch there (outputs stay bit-identical; every executor
        is), the downgrade is logged, and :attr:`last_run_fallback` records
        the reason.  Job bugs and poison-task quarantines propagate
        unchanged — they would fail on any executor.
        """
        input_list = list(inputs)
        # Every run reports on itself alone: an empty or downgraded run must
        # not inherit its predecessor's steals, retries or fallback reason.
        self.last_run_fallback = None
        self.last_run_retries = 0
        self.last_run_worker_tasks = {}
        self.last_run_worker_steals = {}
        self._last_n_artifacts = 0
        wall_start = time.perf_counter()
        served_before = obs.counter("repro.dataplane.served_bytes").value
        try:
            if input_list:
                outputs, stats = self._run_on_cluster(job, input_list)
            else:  # nothing to schedule: no worker is awaited or asked
                outputs, stats = [], JobStats()
        except ClusterUnavailableError as exc:
            if self.fallback is None:
                raise
            logger.warning(
                "cluster unavailable (%s); falling back to the %r executor",
                exc,
                self.fallback,
            )
            self.last_run_fallback = str(exc)
            obs.counter("repro.cluster.fallbacks", executor=self.fallback).inc()
            local = LocalEngine(
                n_workers=self.n_workers,
                executor=self.fallback,
                map_chunk_size="auto",
            )
            outputs, stats = local.run(job, input_list)
        stats.wall_seconds = time.perf_counter() - wall_start
        report = obs.RunReport.from_stats(
            stats,
            job=type(job).__name__,
            executor="cluster",
            n_workers=self.n_workers,
            shuffle_overlapped=self.last_run_fallback is None,
            worker_tasks=dict(self.last_run_worker_tasks),
            worker_steals=dict(self.last_run_worker_steals),
            retries=self.last_run_retries,
            fallback=self.last_run_fallback,
            bytes_served=(
                obs.counter("repro.dataplane.served_bytes").value - served_before
            ),
            n_artifacts=self._last_n_artifacts,
        )
        self.last_run_report = report
        trace = obs.current_trace()
        if trace is not None:
            trace.add_report(report.to_json())
        return outputs, stats

    def _run_on_cluster(
        self, job: MapReduceJob, input_list: list[tuple[Any, Any]]
    ) -> tuple[list[tuple[Any, Any]], JobStats]:
        coordinator = self.coordinator
        # Full-strength barrier on first assembly only: a worker lost
        # mid-session (killed, host down) must not stall every later
        # run for the whole connect timeout — the cluster keeps going
        # on the survivors, exactly as it finishes the run the worker
        # died in.
        needed = self.n_workers if not self._assembled else 1
        coordinator.wait_for_workers(needed, self.connect_timeout)
        self._assembled = True
        run_id = coordinator.next_run_id()
        plane = ArtifactPlane(
            coordinator.spool_dir, run_id, min_bytes=self.min_artifact_bytes
        )
        try:
            outputs, stats, retries = coordinator.run_job(
                job,
                input_list,
                plane,
                run_id,
                granularity=self.steal_granularity,
                prefetch_depth=self.prefetch_depth,
                task_deadline=self.task_deadline,
            )
            self._last_n_artifacts = plane.n_arrays
        finally:
            plane.close()
            coordinator.end_run(run_id)
        self.last_run_retries = retries
        self.last_run_worker_tasks = dict(coordinator.last_run_worker_tasks)
        self.last_run_worker_steals = dict(coordinator.last_run_worker_steals)
        return outputs, stats

    def close(self, shutdown_workers: bool = False) -> None:
        """Release the coordinator (private ones only, unless shared=False).

        Shared coordinators belong to the process (closed at interpreter
        exit) so that sequential env-steered engines keep reusing the same
        listener and workers.
        """
        coordinator = self._coordinator
        self._coordinator = None
        exporter = obs.active_exporter()
        if exporter is not None:
            exporter.remove_health(f"engine:{self.name}")
        if coordinator is not None and not self.shared:
            coordinator.close(shutdown_workers=shutdown_workers)

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- localhost harness -------------------------------------------------------


def _worker_environment(overrides: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for spawned localhost workers.

    The current ``sys.path`` is propagated through ``PYTHONPATH`` so the
    worker can unpickle jobs by reference no matter where they were defined
    — the installed ``repro`` package, a source checkout, or a test module
    pytest imported from a bare directory.
    """
    env = dict(os.environ)
    paths = [p for p in sys.path if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # A localhost cluster is a determinism harness, not a parallelism
    # benchmark by default; keep each worker's BLAS single-threaded so
    # n_hosts workers do not oversubscribe the machine.
    env.setdefault("OMP_NUM_THREADS", "1")
    if overrides:
        env.update(overrides)
    return env


def spawn_local_worker(
    address: tuple[str, int],
    worker_id: str,
    retry_seconds: float = 30.0,
    env_overrides: dict[str, str] | None = None,
) -> subprocess.Popen:
    """Spawn one localhost worker daemon dialing ``address``.

    The building block of :func:`local_cluster`, also used directly by the
    scheduler tests to add a straggler (via ``env_overrides``) or an
    elastic late joiner mid-run.  The caller owns the process.
    """
    host, port = address
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"{host}:{port}",
            "--id",
            worker_id,
            "--retry",
            str(retry_seconds),
            "--quiet",
        ],
        env=_worker_environment(env_overrides),
    )


@contextlib.contextmanager
def local_cluster(
    n_hosts: int,
    min_artifact_bytes: int = DEFAULT_MIN_BYTES,
    retry_seconds: float = 30.0,
    startup_timeout: float = 60.0,
    worker_env: list[dict[str, str] | None] | None = None,
    fault_plan: FaultPlan | str | None = None,
    **engine_kwargs: Any,
):
    """Spawn ``n_hosts`` localhost workers around a private coordinator.

    Yields a ready :class:`ClusterEngine` (workers registered).  On exit the
    workers are shut down (escalating to kill if they ignore it), the
    listener is closed, and the spool directory is removed — tests assert
    this teardown is leak-free.

    ``worker_env`` optionally gives per-host environment overrides (index-
    aligned with host numbering), which the straggler tests use to slow
    one worker down.  Extra keyword arguments reach the engine (e.g.
    ``steal_granularity=1``).

    ``fault_plan`` (a :class:`~repro.distributed.faults.FaultPlan` or its
    string encoding) arms the fault-injection harness *everywhere*: in this
    process (role ``coordinator``) and, via ``REPRO_FAULT_PLAN``, in every
    spawned worker.  Per-index ``worker_env`` overrides win, so a chaos
    test can aim a crash at exactly one host by giving the others
    ``{"REPRO_FAULT_PLAN": ""}`` or a different plan.  The harness is
    uninstalled on exit.
    """
    if n_hosts < 1:
        raise MapReduceError("local_cluster needs at least one host")
    plan = (
        faults.FaultPlan.parse(fault_plan)
        if isinstance(fault_plan, str)
        else fault_plan
    )
    if plan is not None:
        faults.install(plan, role="coordinator")
    engine = ClusterEngine(
        bind="127.0.0.1:0",
        n_workers=n_hosts,
        min_artifact_bytes=min_artifact_bytes,
        shared=False,
        **engine_kwargs,
    ).start()
    processes: list[subprocess.Popen] = []
    try:
        for index in range(n_hosts):
            overrides = None
            if worker_env is not None and index < len(worker_env):
                overrides = worker_env[index]
            if plan is not None:
                merged = {faults.ENV_VAR: plan.encode()}
                merged.update(overrides or {})
                overrides = merged
            processes.append(
                spawn_local_worker(
                    engine.address,
                    f"host{index}",
                    retry_seconds=retry_seconds,
                    env_overrides=overrides,
                )
            )
        engine.wait_for_workers(n_hosts, timeout=startup_timeout)
        yield engine
    finally:
        if plan is not None:
            faults.uninstall()
        engine.close(shutdown_workers=True)
        deadline = time.monotonic() + 10.0
        for process in processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
                process.wait(timeout=10.0)
