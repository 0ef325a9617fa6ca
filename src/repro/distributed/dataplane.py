"""Spool + socket transport of the array plane (the cluster backend).

:class:`ArtifactPlane` is the :class:`~repro.mapreduce.plane.ArrayPlane`
whose store is a **persisted-partition artifact**: each distinct array is
written once per run as a ``.npy`` file in the coordinator's spool
directory.  Dedup, eligibility and the pickler are the plane's
(:mod:`repro.mapreduce.plane`); this module adds the two ways a worker
resolves a reference, cheapest first:

1. **Spool directory** — when the worker shares a filesystem with the
   coordinator (localhost clusters, NFS), it memory-maps the spool file
   directly.  The array is then shipped *once per run*, not even once per
   worker, and never crosses the socket at all.
2. **Socket** — otherwise the worker pulls the ``.npy`` bytes over its
   coordinator connection (an :class:`~repro.distributed.protocol.ArtifactRequest`
   / :class:`~repro.distributed.protocol.Artifact` exchange), verifies them
   against the SHA-256 in the reference, and caches the decoded array for
   the rest of the run: once per (worker, run).

Resolved arrays are read-only (memory-maps are opened ``mmap_mode="r"``,
fetched arrays have ``writeable`` cleared).  The engine's bit-identical
serial/cluster guarantee rests on ``np.save`` / ``np.load`` round-tripping
array bytes exactly, which they do.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from .. import obs
from ..mapreduce.plane import DEFAULT_MIN_BYTES, ArrayPlane
from ..utils.errors import MapReduceError
from . import faults
from .protocol import WireError
from .retry import Backoff

#: How many times a worker fetches an artifact over the socket before the
#: task fails: a transient loss or a checksum mismatch is retried (with
#: full-jitter backoff), persistent corruption fails fast and typed.
FETCH_ATTEMPTS = 3


class ArtifactPlane(ArrayPlane):
    """The array plane over the coordinator's spool directory.

    Each distinct eligible array is written to ``spool_dir`` as
    ``<run_id>-aNNNNN.npy``.  ``close()`` deletes every file; the engine
    calls it in a ``finally`` block, so failed runs clean up too.
    """

    def __init__(
        self,
        spool_dir: str | Path,
        run_id: str,
        min_bytes: int = DEFAULT_MIN_BYTES,
    ) -> None:
        super().__init__(min_bytes)
        self.spool_dir = Path(spool_dir)
        self.run_id = run_id
        self._paths: dict[str, Path] = {}
        self._sums: dict[str, str] = {}

    def _store(self, array: np.ndarray) -> tuple:
        """Write ``array`` to the spool.

        The reference is a small picklable tuple
        ``(name, dtype_str, shape, spool_path, sha256)`` — the digest is
        the SHA-256 of the ``.npy`` bytes, carried in the reference so the
        *task pickle* (not the artifact frame) vouches for the bytes a
        worker fetches over the socket.
        """
        name = f"{self.run_id}-a{len(self._paths):05d}"
        path = self.spool_dir / f"{name}.npy"
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        # ``np.save`` writes the canonical .npy container; the same bytes
        # serve the socket transport via :meth:`payload`.
        digest = hashlib.sha256()
        with open(path, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        self._paths[name] = path
        self._sums[name] = digest.hexdigest()
        return (name, array.dtype.str, array.shape, str(path), self._sums[name])

    def payload(self, name: str) -> bytes:
        """The ``.npy`` bytes of one artifact (the socket transport)."""
        path = self._paths.get(name)
        if path is None:
            raise MapReduceError(f"unknown artifact {name!r} requested")
        return path.read_bytes()

    def checksum(self, name: str) -> str:
        """Hex SHA-256 of one artifact's ``.npy`` bytes (as registered)."""
        digest = self._sums.get(name)
        if digest is None:
            raise MapReduceError(f"unknown artifact {name!r} requested")
        return digest

    def _release(self) -> None:
        """Delete every spool file, making progress past individual failures."""
        for path in self._paths.values():
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / perms
                pass
        self._paths.clear()
        self._sums.clear()


class ArtifactCache:
    """Worker-side resolver: one materialization per artifact per run.

    ``resolve`` tries the spool path first (shared filesystem: zero-copy
    memory map), then falls back to ``fetch`` (socket pull).  Entries live
    until the coordinator's ``EndRun`` clears them.

    Thread-safe: the worker's compute and prefetch threads materialize
    task payloads concurrently, so two ``resolve`` calls may race.  Cache
    bookkeeping is locked; the fetch itself runs unlocked (fetches are
    multiplexed connection-side), so a racing pair resolves the same
    artifact twice at worst — wasted bytes, never a wrong array.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self.n_fetched = 0
        self.n_mapped = 0

    def resolve(self, ref: tuple, fetch: Callable[[str], bytes]) -> np.ndarray:
        name, dtype_str, shape, spool_path, digest = ref
        with self._lock:
            cached = self._arrays.get(name)
        if cached is not None:
            return cached
        array, spool_failure = self._from_spool(spool_path, name)
        fetched = array is None
        if fetched:
            array = self._fetch_verified(name, digest, fetch, spool_failure)
        if array.dtype.str != dtype_str or array.shape != tuple(shape):
            raise MapReduceError(
                f"artifact {name!r} decoded as {array.dtype.str}{array.shape}, "
                f"reference says {dtype_str}{tuple(shape)}"
            )
        with self._lock:
            if fetched:
                self.n_fetched += 1
            else:
                self.n_mapped += 1
            self._arrays[name] = array
        if fetched:
            obs.counter("repro.dataplane.fetched").inc()
            obs.counter("repro.dataplane.fetched_bytes").inc(array.nbytes)
        else:
            obs.counter("repro.dataplane.mapped").inc()
        return array

    @staticmethod
    def _fetch_verified(
        name: str,
        digest: str,
        fetch: Callable[[str], bytes],
        spool_failure: str,
    ) -> np.ndarray:
        """Socket-pull ``name``, verifying SHA-256, with bounded retries.

        Transient failures — connection loss mid-fetch (``WireError``),
        corrupted bytes (digest mismatch), undecodable payload — are
        retried up to :data:`FETCH_ATTEMPTS` times with full-jitter
        backoff.  A coordinator-reported error (the run already ended) is
        permanent and re-raised as is.  Exhaustion raises a typed
        :class:`MapReduceError` naming the artifact and every failure,
        including why the spool path was unusable.
        """
        if not digest:
            raise MapReduceError(
                f"artifact {name!r}: malformed reference (no SHA-256 digest); "
                "refusing to decode unverified bytes"
            )
        backoff = Backoff(base=0.05, cap=1.0, site="dataplane.fetch")
        failures: list[str] = []
        if spool_failure:
            failures.append(f"spool: {spool_failure}")
        for attempt in range(1, FETCH_ATTEMPTS + 1):
            try:
                with obs.span("dataplane.fetch", artifact=name, attempt=attempt):
                    data = fetch(name)
            except WireError as exc:
                failures.append(f"fetch attempt {attempt}: {exc}")
                backoff.sleep()
                continue
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                failures.append(
                    f"fetch attempt {attempt}: checksum mismatch "
                    f"(got {actual[:12]}…, reference says {digest[:12]}…)"
                )
                backoff.sleep()
                continue
            try:
                return decode_artifact(data)
            except ValueError as exc:
                failures.append(f"fetch attempt {attempt}: undecodable: {exc}")
                backoff.sleep()
        raise MapReduceError(
            f"artifact {name!r} could not be materialized intact after "
            f"{FETCH_ATTEMPTS} fetch attempt(s): {'; '.join(failures)}"
        )

    @staticmethod
    def _from_spool(spool_path: str, name: str) -> tuple[np.ndarray | None, str]:
        """Memory-map the spool file; ``(None, reason)`` when unusable.

        A truncated or otherwise unreadable spool file must never surface
        as garbage data: ``np.load`` validates the ``.npy`` header and the
        mapped length, so failure here means *fall back to the socket* —
        and the reason travels into the typed error if that fails too.
        """
        if not spool_path:
            return None, "no spool path in reference"
        try:
            faults.fire("dataplane.read", detail=name)
            if not os.path.isfile(spool_path):
                return None, f"spool file {spool_path} does not exist"
            # mmap_mode="r" is read-only by construction: the OS shares the
            # pages and a write attempt raises, exactly like the shm plane's
            # read-only views.
            return np.load(spool_path, mmap_mode="r", allow_pickle=False), ""
        except (OSError, ValueError) as exc:
            return None, f"spool file {spool_path} unreadable: {exc}"

    def clear(self, run_id: str | None = None) -> None:
        """Drop cached arrays (of one run, or everything)."""
        with self._lock:
            if run_id is None:
                self._arrays.clear()
                return
            prefix = f"{run_id}-a"
            for name in [n for n in self._arrays if n.startswith(prefix)]:
                del self._arrays[name]

    def __len__(self) -> int:
        return len(self._arrays)


def decode_artifact(data: bytes) -> np.ndarray:
    """Decode ``.npy`` bytes into a read-only array."""
    array = np.load(io.BytesIO(data), allow_pickle=False)
    array.flags.writeable = False
    return array
