"""Length-prefixed wire protocol of the cluster backend.

Every connection between a worker daemon and the coordinator speaks the
same framing: a fixed 5-byte preamble (magic + protocol version) exchanged
once at connect time, then a stream of frames, each an 8-byte big-endian
length followed by that many bytes of pickled message.  The preamble lets
both ends reject foreign connections (a port scanner, a worker built from
another tree) before any pickle bytes are interpreted; the version byte makes
a protocol bump an explicit handshake failure instead of an unpickling crash.

Messages are the small dataclasses below.  They pickle by reference, so a
worker only needs ``repro`` importable — no schema registry.  Task payloads
and artifact bytes are opaque ``bytes`` fields produced by the array plane
(:mod:`repro.mapreduce.plane` pickling, :mod:`repro.distributed.dataplane`
transport), which keeps the framing layer free of NumPy concerns.

The normative specification of the protocol — framing, preamble, heartbeat
rules, and the scheduler conversation (:class:`StealRequest` /
:class:`TaskStream` / :class:`JoinRun`) — lives in ``docs/protocol.md``; a
test asserts every message type and constant defined here is covered there,
so the document cannot silently drift from the code.

Trust model: pickle over a socket executes arbitrary code by design, which
is the standard posture of cluster compute planes (Spark, Dask, Ray all
ship pickled closures).  Workers must only ever be pointed at a coordinator
on a trusted network — the preamble is a liveness/compatibility check, not
authentication.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any

from ..utils.errors import MapReduceError
from . import faults

#: Connection preamble: 4 magic bytes + 1 version byte.
MAGIC = b"RPDC"
#: The one protocol version: workers and coordinator ship from one tree,
#: so every field below is always present and read by plain attribute
#: access.  A peer speaking any other version is rejected at the preamble,
#: never mid-pickle.
PROTOCOL_VERSION = 2
PREAMBLE = MAGIC + bytes([PROTOCOL_VERSION])

#: Frame header: payload length as an unsigned 64-bit big-endian integer.
_HEADER = struct.Struct("!Q")

#: Upper bound on a single frame.  Generous (an artifact frame carries one
#: whole value matrix) but finite, so a corrupted length prefix fails fast
#: instead of attempting a petabyte allocation.
MAX_FRAME_BYTES = 1 << 38  # 256 GiB


class WireError(MapReduceError):
    """A connection died or spoke garbage mid-conversation.

    Distinct from a job failure: the coordinator treats :class:`WireError`
    (and plain ``OSError``) as *worker loss* — the task is retried on
    another worker — whereas an error reported inside a
    :class:`TaskResult` is a deterministic job bug and fails the run.
    """


# -- messages ----------------------------------------------------------------


@dataclass
class Hello:
    """Worker -> coordinator, once per connection, after the preamble."""

    worker_id: str
    pid: int
    host: str


@dataclass
class Welcome:
    """Coordinator -> worker: registration accepted, here is the contract."""

    heartbeat_interval: float
    spool_dir: str


@dataclass
class Task:
    """Coordinator -> worker: run one map chunk or reduce group."""

    task_id: int
    payload: bytes  # plane-pickled ("map"|"reduce", job, data)


@dataclass
class TaskResult:
    """Worker -> coordinator: outcome of one task.

    ``status`` is ``"ok"`` (``result`` holds the emitted list) or ``"err"``
    (``traceback`` holds the remote traceback text and ``original`` the
    exception instance when it survived a pickle round trip).  ``run_id``
    names the run the task belongs to: with pipelined dispatch a result can
    arrive after its run already ended, and the coordinator must be able to
    discard such stale results instead of crediting them to the next run.

    ``spans`` carries the task's worker-side trace spans, each a
    ``(name, offset_seconds, duration_seconds, attrs)`` tuple with offsets
    relative to the worker's task start.  Populated only when the run's
    :class:`JoinRun` had ``trace=True``; empty (and costing nothing on the
    wire beyond the empty tuple) otherwise.

    ``profile`` carries the task's collapsed-stack sample counts as
    a ``{stack: samples}`` dict when the run's :class:`JoinRun` had
    ``profile=True``; ``None`` otherwise.  The coordinator folds it into
    the driver profile under a ``worker:<id>`` root frame.
    """

    task_id: int
    status: str
    result: Any = None
    seconds: float = 0.0
    traceback: str = ""
    original: BaseException | None = None
    run_id: str = ""
    spans: tuple = ()
    profile: Any = None


@dataclass
class ArtifactRequest:
    """Worker -> coordinator: send me the bytes of this artifact."""

    name: str


@dataclass
class Artifact:
    """Coordinator -> worker: one artifact, as ``.npy`` bytes.

    ``error`` is non-empty when the artifact could not be served (its run
    already ended and the spool file is gone) — the worker fails the task
    that asked instead of waiting out its fetch timeout.

    ``sha256`` is the hex SHA-256 of ``data`` as registered on the
    coordinator.  A worker verifies the fetched bytes against the digest in
    the artifact *reference* and re-fetches (bounded) on mismatch, so a
    corrupted frame is retried instead of silently decoded.
    """

    name: str
    data: bytes = b""
    error: str = ""
    sha256: str = ""


@dataclass
class StealRequest:
    """Worker -> coordinator: my run queue has room; steal me more work.

    The work-stealing edge of the scheduler.  Dispatch is pull-based:
    the coordinator never sends unsolicited tasks, it grants queued tasks
    against the ``capacity`` a worker has announced.  A worker announces its
    full prefetch depth when it joins a run (:class:`JoinRun`) and one more
    slot after every :class:`TaskResult`, so fast workers drain the shared
    queue while a straggler holds at most its own pipeline.
    """

    worker_id: str
    capacity: int = 1


@dataclass
class TaskStream:
    """Coordinator -> worker: a batch of stolen tasks, streamed.

    The grant matching one or more :class:`StealRequest` credits.  The
    worker queues the tasks locally and prefetches the next task's
    artifacts while the current one computes, so the data plane transfer
    overlaps compute instead of serializing with it.
    """

    run_id: str
    tasks: list  # list[Task]


@dataclass
class JoinRun:
    """Coordinator -> worker: you are attached to the active run.

    Sent to every registered worker when a run starts and to any worker
    that registers *while* a run is executing — elastic join: a late worker
    answers with a :class:`StealRequest` and immediately receives stolen
    work.  ``prefetch_depth`` is the number of tasks the worker should keep
    in flight (one computing, the rest prefetching artifacts).

    ``trace`` marks the run as traced: the worker records per-task
    spans and ships them back via :attr:`TaskResult.spans`.  Defaults off,
    so untraced runs pay nothing.

    ``profile`` marks the run as profiled: the worker samples each
    task's slot thread and ships collapsed-stack counts back via
    :attr:`TaskResult.profile`.  Defaults off, so unprofiled runs pay
    nothing.
    """

    run_id: str
    phase: str
    prefetch_depth: int = 2
    trace: bool = False
    profile: bool = False


@dataclass
class Heartbeat:
    """Worker -> coordinator: still alive (sent during tasks too).

    ``seq`` and ``metrics`` piggyback the worker's metrics-registry
    delta since its previous heartbeat: ``metrics`` is the JSON-able delta
    dict produced by :class:`repro.obs.DeltaShipper` (``None`` when
    nothing changed), and ``seq`` mirrors its sequence number so the
    coordinator drops duplicates.  Purely advisory telemetry: a delta lost
    with a dying connection is dropped, never re-shipped, and heartbeats
    still never advance task-progress deadlines.
    """

    worker_id: str
    seq: int = 0
    metrics: Any = None


@dataclass
class EndRun:
    """Coordinator -> worker: a run finished; drop its cached artifacts."""

    run_id: str


@dataclass
class Shutdown:
    """Coordinator -> worker: exit cleanly (do not reconnect)."""

    reason: str = ""


# -- framing -----------------------------------------------------------------


def send_preamble(sock: socket.socket) -> None:
    sock.sendall(PREAMBLE)


def recv_preamble(sock: socket.socket) -> None:
    """Read and verify the 5-byte preamble; raises :class:`WireError`."""
    raw = _recv_exact(sock, len(PREAMBLE), eof_ok=False)
    if raw[:4] != MAGIC:
        raise WireError(f"peer is not a repro cluster endpoint (got {raw[:4]!r})")
    if raw[4] != PROTOCOL_VERSION:
        raise WireError(
            f"protocol version mismatch: peer speaks {raw[4]}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )


def send_msg(sock: socket.socket, message: Any) -> None:
    """Send one framed, pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        payload = faults.frame_out(sock, payload, type(message).__name__)
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except OSError as exc:
        raise WireError(f"connection lost while sending: {exc}") from exc


def recv_msg(sock: socket.socket) -> Any | None:
    """Receive one message; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame, an oversized length prefix, or an
    unpicklable payload raise :class:`WireError` — the caller cannot trust
    anything further on this connection.
    """
    try:
        faults.fire("protocol.recv", sock=sock)
    except OSError as exc:
        raise WireError(f"connection lost while receiving: {exc}") from exc
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap "
            "(corrupt stream?)"
        )
    payload = _recv_exact(sock, length, eof_ok=False)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise WireError(f"could not unpickle a frame: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on immediate EOF when allowed."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise WireError(f"connection lost while receiving: {exc}") from exc
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise WireError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_address(spec: str, variable: str = "address") -> tuple[str, int]:
    """Parse ``HOST:PORT`` into a ``(host, port)`` pair.

    ``variable`` names the source in the error message (e.g. the
    ``REPRO_CLUSTER`` environment variable, or the ``--connect`` flag).
    """
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise MapReduceError(
            f"{variable} must be HOST:PORT (e.g. 127.0.0.1:7077), got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise MapReduceError(
            f"{variable} must be HOST:PORT with an integer port, got {spec!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise MapReduceError(f"{variable} port must be in [0, 65535], got {port}")
    return host, port
