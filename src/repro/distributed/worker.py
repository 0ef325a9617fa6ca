"""Cluster worker daemon: ``repro worker --connect HOST:PORT``.

One worker is one "host" of the cluster (capacity: one *computing* task at
a time, matching the paper's one-slot-per-node Hadoop deployment).  The
daemon

* dials the coordinator (retrying while it is not up yet, so workers can be
  started before the driver process — the CI recipe),
* pulls work instead of waiting to be handed it: on ``JoinRun`` it
  announces its prefetch depth with a ``StealRequest``, and one more slot
  after every result, so the coordinator's shared queue drains toward
  whoever is idle (see ``docs/protocol.md``),
* pipelines the data plane with compute: while one task runs, a prefetch
  thread materializes the next queued task's payload — unpickling and
  resolving artifact references (spool memory-map first, socket pull
  second; see :mod:`repro.distributed.dataplane`) — so transfer time hides
  behind compute time,
* executes map chunks and reduce groups through the engines' one task body
  (:func:`repro.mapreduce.engine.run_task`), reporting the result or the
  captured traceback and original exception on failure — the process
  executor's contract, so the coordinator can re-raise library errors with
  their real type,
* sends heartbeats from a background thread — also *during* long tasks —
  so the coordinator can tell a straggler from a corpse, and
* reconnects after losing the coordinator (a driver exits between
  ``repro index`` and ``repro query``) until its ``--retry`` window runs
  out without a successful connection.  A worker that (re)connects while a
  run is in progress receives ``JoinRun`` immediately and starts stealing
  — elastic join.

A task that raises is reported and the worker lives on; only ``Shutdown``
from the coordinator, an exhausted retry window, or process death end the
daemon.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque

from ..mapreduce.engine import capture_task_error, run_task
from ..mapreduce.plane import loads
from ..obs import configure_logging, get_logger
from ..obs import metrics as obs
from ..obs.fleet import DeltaShipper
from ..obs.profile import Profiler
from ..utils.errors import MapReduceError
from . import faults, protocol
from .dataplane import ArtifactCache
from .retry import Backoff
from .protocol import (
    Artifact,
    ArtifactRequest,
    EndRun,
    Heartbeat,
    Hello,
    JoinRun,
    Shutdown,
    StealRequest,
    Task,
    TaskResult,
    TaskStream,
    WireError,
)

#: How long a worker waits for the coordinator's side of the handshake.
HANDSHAKE_TIMEOUT = 30.0

#: How long a worker waits for an artifact it asked for.
FETCH_TIMEOUT = 120.0

#: Redial backoff (full jitter): the first retry waits up to
#: ``REDIAL_BASE`` seconds, each further failure doubles the window up to
#: ``REDIAL_CAP`` seconds, and a successful registration resets it.
#: Jitter keeps a fleet of workers that lost one coordinator from
#: stampeding the next in lockstep.
REDIAL_BASE = 0.1
REDIAL_CAP = 5.0

#: TCP connect timeout of a single dial attempt.
DIAL_TIMEOUT = 5.0

logger = get_logger(__name__)


def _error_result() -> TaskResult:
    """A ``status="err"`` result for the exception currently being handled."""
    remote_tb, original = capture_task_error()
    return TaskResult(
        task_id=-1, status="err", traceback=remote_tb, original=original
    )


class _TaskSlot:
    """One queued task and its materialization state.

    States (guarded by the queue's condition): ``"new"`` (payload bytes
    only) → ``"loading"`` (a thread is unpickling it and resolving its
    artifacts) → ``"ready"`` (``value`` holds the live task tuple),
    ``"failed"`` (``error`` holds the err TaskResult — a job bug), or
    ``"lost"`` (transport died while loading; the task is abandoned for
    the coordinator to requeue, never reported as failed).  The prefetch
    thread moves queued slots to ``ready`` while the compute thread runs
    the current one — that is the transfer/compute overlap.
    """

    __slots__ = ("run_id", "task", "state", "value", "error")

    def __init__(self, run_id: str, task: Task) -> None:
        self.run_id = run_id
        self.task = task
        self.state = "new"
        self.value = None
        self.error: TaskResult | None = None


class _TaskQueue:
    """The worker's local run queue, shared by recv/prefetch/compute threads."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.slots: deque[_TaskSlot] = deque()
        self.stopped = False
        self._depth_gauge = obs.gauge("repro.worker.queue_depth")

    def extend(self, run_id: str, tasks: list[Task]) -> None:
        with self.cond:
            for task in tasks:
                self.slots.append(_TaskSlot(run_id, task))
            self._depth_gauge.set(len(self.slots))
            self.cond.notify_all()

    def drop_run(self, run_id: str) -> None:
        """Discard queued (not yet computing) slots of an ended run."""
        with self.cond:
            self.slots = deque(s for s in self.slots if s.run_id != run_id)
            self._depth_gauge.set(len(self.slots))
            self.cond.notify_all()

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self._depth_gauge.set(0)
            self.cond.notify_all()

    def pop(self) -> _TaskSlot | None:
        """Next slot for the compute thread; ``None`` once stopped."""
        with self.cond:
            while not self.slots and not self.stopped:
                self.cond.wait()
            if self.stopped:
                return None
            slot = self.slots.popleft()
            self._depth_gauge.set(len(self.slots))
            return slot

    def claim_for_prefetch(self) -> _TaskSlot | None:
        """Next ``"new"`` slot for the prefetch thread; ``None`` once stopped.

        The slot stays in the queue (compute pops in FIFO order regardless);
        claiming just flips it to ``"loading"`` so exactly one thread
        materializes it.
        """
        with self.cond:
            while True:
                if self.stopped:
                    return None
                for slot in self.slots:
                    if slot.state == "new":
                        slot.state = "loading"
                        return slot
                self.cond.wait()


class _FetchWaiter:
    __slots__ = ("event", "data", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.data: bytes | None = None
        self.error = ""


class _Connection:
    """One registered coordinator connection of a worker."""

    def __init__(
        self,
        sock: socket.socket,
        worker_id: str,
        shipper: DeltaShipper | None = None,
    ) -> None:
        self.sock = sock
        self.worker_id = worker_id
        self.send_lock = threading.Lock()
        self.heartbeat_interval = 1.0
        self.spool_dir = ""
        self._stop = threading.Event()
        self._fetch_lock = threading.Lock()
        self._fetches: dict[str, list[_FetchWaiter]] = {}
        #: Runs whose :class:`JoinRun` asked for tracing: tasks of these
        #: runs ship their spans back on the :class:`TaskResult`.
        self.trace_runs: set[str] = set()
        #: Runs whose :class:`JoinRun` asked for profiling: tasks of these
        #: runs sample their slot thread and ship collapsed-stack counts
        #: back on the :class:`TaskResult`.
        self.profile_runs: set[str] = set()
        #: The daemon's metrics delta shipper (heartbeat piggyback).
        #: Owned by the *daemon*, not the connection: baselines and the
        #: sequence number must survive reconnects so a retained
        #: coordinator keeps deduplicating honestly.
        self.shipper = shipper

    def send(self, message) -> None:
        with self.send_lock:
            protocol.send_msg(self.sock, message)

    def handshake(self, timeout: float = HANDSHAKE_TIMEOUT) -> None:
        self.sock.settimeout(timeout)
        protocol.send_preamble(self.sock)
        protocol.recv_preamble(self.sock)
        self.send(
            Hello(
                worker_id=self.worker_id,
                pid=os.getpid(),
                host=socket.gethostname(),
            )
        )
        welcome = protocol.recv_msg(self.sock)
        if not isinstance(welcome, protocol.Welcome):
            raise WireError(f"expected Welcome, got {type(welcome).__name__}")
        self.heartbeat_interval = welcome.heartbeat_interval
        self.spool_dir = welcome.spool_dir
        self.sock.settimeout(None)

    def start_heartbeats(self) -> None:
        thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="repro-heartbeat"
        )
        thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                # A delay fault here models a worker whose heartbeat thread
                # stalls (GC pause, swapped-out host): long enough and the
                # coordinator declares it lost despite the task thread
                # still running.
                faults.fire("worker.heartbeat")
                # Piggyback the metrics delta since the previous
                # beat.  A delta consumed here but lost with the
                # connection is dropped, never re-shipped — the fleet
                # view is advisory telemetry.
                delta = (
                    self.shipper.next_delta()
                    if self.shipper is not None
                    else None
                )
                self.send(
                    Heartbeat(
                        worker_id=self.worker_id,
                        seq=delta["seq"] if delta else 0,
                        metrics=delta,
                    )
                )
            except (WireError, OSError):
                # The connection is gone; unblock the main recv loop too.
                self.close()
                return

    def fetch_artifact(self, name: str) -> bytes:
        """Pull one artifact over the connection (called mid-unpickle).

        Fetches are multiplexed: the request goes out on the shared send
        path, the recv loop delivers the reply via :meth:`deliver_artifact`,
        and any number of threads (compute materializing its own slot,
        prefetch materializing the next) can wait concurrently.
        """
        waiter = _FetchWaiter()
        with self._fetch_lock:
            self._fetches.setdefault(name, []).append(waiter)
        try:
            self.send(ArtifactRequest(name=name))
            deadline = time.monotonic() + FETCH_TIMEOUT
            # Poll the stop flag too: a connection torn down mid-fetch must
            # not strand a materializing thread for the full fetch timeout.
            while not waiter.event.wait(0.2):
                if self._stop.is_set():
                    raise WireError("connection closed mid-artifact-fetch")
                if time.monotonic() > deadline:
                    raise WireError(f"timed out fetching artifact {name!r}")
        finally:
            with self._fetch_lock:
                waiters = self._fetches.get(name)
                if waiters and waiter in waiters:
                    waiters.remove(waiter)
                    if not waiters:
                        del self._fetches[name]
        if waiter.error:
            raise MapReduceError(
                f"coordinator could not serve artifact {name!r}: {waiter.error}"
            )
        if waiter.data is None:
            raise WireError("coordinator vanished mid-artifact-fetch")
        return waiter.data

    def deliver_artifact(self, message: Artifact) -> None:
        with self._fetch_lock:
            waiters = self._fetches.pop(message.name, [])
        for waiter in waiters:
            waiter.data = message.data
            waiter.error = message.error
            waiter.event.set()

    def fail_fetches(self) -> None:
        """Wake every in-flight fetch with a connection-lost outcome."""
        with self._fetch_lock:
            waiters = [w for group in self._fetches.values() for w in group]
            self._fetches.clear()
        for waiter in waiters:
            waiter.event.set()

    def close(self) -> None:
        self._stop.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass
        self.fail_fetches()


def _materialize(
    slot: _TaskSlot,
    queue: _TaskQueue,
    cache: ArtifactCache,
    connection: _Connection,
) -> None:
    """Unpickle a slot's payload, resolving artifacts; flip its state."""
    try:
        faults.fire("worker.prefetch", detail=str(slot.task.task_id))
        value = loads(
            slot.task.payload,
            lambda ref: cache.resolve(ref, connection.fetch_artifact),
        )
    except (SystemExit, KeyboardInterrupt):  # pragma: no cover - passthrough
        raise
    except (WireError, OSError):
        # Transport loss, not a job bug: an err TaskResult would fail the
        # whole run, but a task this worker could not even *load* must be
        # retried elsewhere.  Abandon the slot and drop the connection —
        # the coordinator requeues everything outstanding here.
        with queue.cond:
            slot.state = "lost"
            queue.cond.notify_all()
        connection.close()
        return
    except BaseException:
        error = _error_result()
        with queue.cond:
            slot.error = error
            slot.state = "failed"
            queue.cond.notify_all()
        return
    with queue.cond:
        slot.value = value
        slot.state = "ready"
        queue.cond.notify_all()


def _prefetch_loop(
    queue: _TaskQueue, cache: ArtifactCache, connection: _Connection
) -> None:
    while True:
        slot = queue.claim_for_prefetch()
        if slot is None:
            return
        _materialize(slot, queue, cache, connection)


def _run_slot(
    slot: _TaskSlot,
    queue: _TaskQueue,
    cache: ArtifactCache,
    connection: _Connection,
) -> TaskResult:
    """Compute one slot, materializing it first if prefetch has not.

    Task ``seconds`` cover compute only when the payload was prefetched —
    the whole point of the pipeline is that transfer time does not bill to
    the task — and compute+materialize when the compute thread had to do
    both (queue depth 1, prefetch disabled or behind).
    """
    with queue.cond:
        if slot.state == "new":
            slot.state = "loading"
            claimed = True
        else:
            claimed = False
            while slot.state == "loading" and not queue.stopped:
                queue.cond.wait()
    traced = slot.run_id in connection.trace_runs
    profiled = slot.run_id in connection.profile_runs
    start = time.perf_counter()
    if claimed:
        _materialize(slot, queue, cache, connection)
    load_seconds = time.perf_counter() - start if claimed else 0.0
    if slot.state == "failed":
        return slot.error
    if slot.state != "ready":
        # "lost" or stopped mid-load: the connection is (being) torn down,
        # so this result never reaches the coordinator — it requeues the
        # task off the dead socket instead.
        return TaskResult(
            task_id=-1,
            status="err",
            traceback="task abandoned: connection stopped while loading",
        )
    kind, job, data = slot.value
    # Sample exactly this slot thread while the task computes, so the
    # shipped profile is the task's own stacks, not the daemon's
    # heartbeat/recv threads.
    profiler = (
        Profiler(threads={threading.get_ident()}) if profiled else None
    )
    try:
        # crash/hang/delay here model a worker dying, wedging (while its
        # heartbeat thread keeps beating — the task-deadline case), or
        # straggling mid-compute.
        faults.fire("worker.compute", detail=kind)
        compute_offset = time.perf_counter() - start
        result = run_task(kind, job, data)
        seconds = time.perf_counter() - start
        if profiler is not None:
            profiler.stop()
        obs.counter("repro.worker.tasks", kind=kind).inc()
        obs.histogram("repro.worker.task_seconds").observe(seconds)
        spans: tuple = ()
        if traced:
            # Offsets are relative to the task start on the worker clock;
            # the coordinator re-bases them onto the driver clock.
            recorded = []
            if claimed:
                recorded.append(("task.load", 0.0, load_seconds, {}))
            recorded.append(
                (
                    "task.compute",
                    compute_offset,
                    seconds - compute_offset,
                    {"kind": kind},
                )
            )
            spans = tuple(recorded)
        return TaskResult(
            task_id=-1,
            status="ok",
            result=result,
            seconds=seconds,
            spans=spans,
            profile=profiler.counts() if profiler is not None else None,
        )
    except (SystemExit, KeyboardInterrupt):  # pragma: no cover - passthrough
        raise
    except BaseException:
        return _error_result()
    finally:
        if profiler is not None:
            profiler.stop()


def _compute_loop(
    queue: _TaskQueue, cache: ArtifactCache, connection: _Connection
) -> None:
    while True:
        slot = queue.pop()
        if slot is None:
            return
        result = _run_slot(slot, queue, cache, connection)
        result.task_id = slot.task.task_id
        result.run_id = slot.run_id
        try:
            connection.send(result)
            # Pull-based dispatch: the slot this result frees is re-announced
            # immediately, which is what lets a fast worker steal the queue
            # out from under a straggler.
            connection.send(StealRequest(worker_id=connection.worker_id))
        except (WireError, OSError):
            connection.close()
            return


def _serve(connection: _Connection, cache: ArtifactCache) -> str:
    """Recv loop of one connection; returns "shutdown" or "lost".

    Three sibling threads work the connection: heartbeats, compute (one
    task at a time, FIFO), and prefetch (materializes the next queued
    task).  This loop is the only reader — artifacts are routed to waiting
    fetches, everything else mutates the queue.
    """
    connection.start_heartbeats()
    queue = _TaskQueue()
    compute = threading.Thread(
        target=_compute_loop,
        args=(queue, cache, connection),
        daemon=True,
        name="repro-compute",
    )
    prefetch = threading.Thread(
        target=_prefetch_loop,
        args=(queue, cache, connection),
        daemon=True,
        name="repro-prefetch",
    )
    compute.start()
    prefetch.start()
    outcome = "lost"
    try:
        while True:
            try:
                message = protocol.recv_msg(connection.sock)
            except (WireError, OSError):
                break
            if message is None:
                break
            if isinstance(message, Shutdown):
                outcome = "shutdown"
                break
            if isinstance(message, EndRun):
                queue.drop_run(message.run_id)
                cache.clear(message.run_id)
                connection.trace_runs.discard(message.run_id)
                connection.profile_runs.discard(message.run_id)
                continue
            if isinstance(message, JoinRun):
                if message.trace:
                    connection.trace_runs.add(message.run_id)
                if message.profile:
                    connection.profile_runs.add(message.run_id)
                # Attached to a (possibly already-running) run: announce the
                # whole pipeline as steal capacity.
                try:
                    connection.send(
                        StealRequest(
                            worker_id=connection.worker_id,
                            capacity=max(1, message.prefetch_depth),
                        )
                    )
                except (WireError, OSError):
                    break
                continue
            if isinstance(message, TaskStream):
                queue.extend(message.run_id, message.tasks)
                continue
            if isinstance(message, Artifact):
                connection.deliver_artifact(message)
                continue
            # Unknown message: protocol drift; drop the connection loudly.
            logger.warning(
                "worker %s: unexpected %s; dropping connection",
                connection.worker_id,
                type(message).__name__,
            )
            break
    finally:
        queue.stop()
        connection.close()  # also fails in-flight fetches
        # Let the current task finish (its result send will fail, which is
        # fine) so two connections never compute concurrently — the worker
        # stays a one-compute-slot host across reconnects.
        compute.join()
        prefetch.join()
    return outcome


def _dial(host: str, port: int, timeout: float = DIAL_TIMEOUT) -> socket.socket:
    """One TCP connection attempt to the coordinator (no retries here)."""
    faults.fire("worker.dial")
    return socket.create_connection((host, port), timeout=timeout)


def run_worker(
    connect: str,
    worker_id: str | None = None,
    retry_seconds: float = 60.0,
    quiet: bool = False,
    redial_base: float = REDIAL_BASE,
    redial_cap: float = REDIAL_CAP,
    heartbeat_interval: float | None = None,
) -> int:
    """Run the worker daemon until shutdown; returns a process exit code.

    ``retry_seconds`` bounds how long the worker keeps dialing without a
    successful connection — both at startup (coordinator not up yet) and
    after losing an established coordinator (driver exited; a new one may
    start).  ``0`` means a single attempt.  Failed dials back off with
    full jitter from ``redial_base`` seconds doubling up to ``redial_cap``
    seconds per attempt (:class:`~repro.distributed.retry.Backoff`); a
    successful registration resets the backoff and the retry window.

    ``heartbeat_interval`` (seconds) overrides the cadence the coordinator
    announces in its ``Welcome`` — metrics deltas ship on heartbeats, so
    an operator can trade telemetry freshness against chatter.  ``None``
    keeps the coordinator's contract; anything else must be > 0.
    """
    host, port = protocol.parse_address(connect, variable="--connect")
    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise MapReduceError(
            f"heartbeat_interval must be > 0 seconds, got {heartbeat_interval}"
        )
    wid = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    faults.install_from_env(role="worker")
    cache = ArtifactCache()
    # One shipper for the daemon's lifetime (not per connection): delta
    # baselines and the sequence number must survive reconnects.
    shipper = DeltaShipper()
    backoff = Backoff(base=redial_base, cap=redial_cap, site="worker.redial")
    if not quiet:
        # The daemon is an application: attach a real handler (text or
        # JSON lines per REPRO_LOG_JSON) so its status lines reach stderr.
        configure_logging()

    def log(text: str) -> None:
        if not quiet:
            logger.info("worker %s: %s", wid, text)

    window_start = time.monotonic()

    def window_exhausted(reason: str) -> bool:
        if time.monotonic() - window_start > retry_seconds:
            log(f"{reason} for {retry_seconds:.0f}s; exiting")
            return True
        backoff.sleep()
        return False

    while True:
        try:
            sock = _dial(host, port)
        except OSError:
            if window_exhausted(f"no coordinator at {host}:{port}"):
                return 1
            continue

        connection = _Connection(sock, wid, shipper=shipper)
        try:
            # A peer that accepts TCP but never answers (wrong service on
            # the port) must not stall past the retry window: clamp the
            # handshake timeout to what is left of it.
            remaining = retry_seconds - (time.monotonic() - window_start)
            connection.handshake(
                timeout=min(HANDSHAKE_TIMEOUT, max(1.0, remaining + 1.0))
            )
        except (WireError, OSError) as exc:
            # A failed handshake (wrong service on the port, version skew)
            # burns the same retry window as a refused connect — only a
            # completed registration resets it.
            log(f"handshake failed: {exc}")
            connection.close()
            if window_exhausted(f"no usable coordinator at {host}:{port}"):
                return 1
            continue

        log(f"connected to coordinator {host}:{port}")
        if heartbeat_interval is not None:
            connection.heartbeat_interval = heartbeat_interval
        window_start = time.monotonic()  # successful registration resets it
        backoff.reset()
        outcome = _serve(connection, cache)
        connection.close()
        cache.clear()
        if outcome == "shutdown":
            log("shutdown requested by coordinator; exiting")
            return 0
        log("lost coordinator; retrying")
        window_start = time.monotonic()
