"""The array plane: ship each large array once per run, not once per task.

Every engine that pickles task payloads — the process executor and the
cluster backend — faces the same problem: the large NumPy matrices behind a
task (raw data set columns, scalar-function value matrices, feature masks)
would be serialized **per task**, and the same matrix frequently backs many
tasks (every candidate of a query references its two functions' feature
masks; every partition of one data set references the full record arrays).

One mechanism removes that copy for all of them.  An :class:`ArrayPlane`
registers each distinct large array **once** with its transport and hands
back a tiny picklable reference; :func:`dumps` substitutes eligible arrays
by those references while pickling a payload, and :func:`loads` turns the
references back into read-only arrays through the transport's resolver.
What differs per transport is only *store* and *resolve*:

* :mod:`repro.mapreduce.shm` — ``multiprocessing.shared_memory`` segments,
  attached untracked and zero-copy by pool workers on the same machine;
* :mod:`repro.distributed.dataplane` — ``.npy`` files in the coordinator's
  spool directory, memory-mapped by workers that share the filesystem and
  pulled (checksum-verified) over the socket by those that do not.

Which transport runs is decided by which engine runs; nothing selects it.

Guarantees, stated here once for every transport:

* **Registration is deduplicated** by array identity — an array appearing
  in ten payloads is stored once.  A keepalive list pins registered arrays
  so a freed array's ``id`` cannot be recycled into a stale cache hit.
* **Cleanup is guaranteed** — the owning engine closes the plane in a
  ``finally`` block, and :meth:`ArrayPlane.close` is idempotent and never
  raises partway.
* **Resolved arrays are read-only** — map tasks must treat inputs as
  immutable (the serial executor shares the same objects by reference);
  read-only views turn an accidental in-place mutation into a loud error
  instead of a silent cross-process divergence.

The plane is transport only: it never changes *what* is computed, so the
engines' bit-identical-to-serial guarantee is preserved.
"""

from __future__ import annotations

import io
import pickle
from collections.abc import Callable
from typing import Any

import numpy as np

from ..utils.errors import MapReduceError

#: Arrays below this many bytes travel inside the task pickle: a segment or
#: spool file (a file descriptor, a page-aligned allocation, an attach or
#: fetch per worker) only pays off for matrices of real size.
DEFAULT_MIN_BYTES = 32 * 1024

#: Tag marking a persistent id as one of ours (defensive: ``persistent_load``
#: must reject foreign pids instead of fabricating arrays from garbage).
_PID_TAG = "repro.mapreduce.plane"


class ArrayPlane:
    """Owner of the out-of-band arrays behind one engine run.

    Subclasses supply the transport: :meth:`_store` puts one array where
    workers can reach it and returns its picklable reference, and
    :meth:`_release` takes everything back.

    Parameters
    ----------
    min_bytes:
        Arrays smaller than this are left to plain pickle (see
        :data:`DEFAULT_MIN_BYTES`).
    """

    def __init__(self, min_bytes: int = DEFAULT_MIN_BYTES) -> None:
        if min_bytes < 1:
            raise MapReduceError("array-plane min_bytes must be >= 1")
        self.min_bytes = min_bytes
        self._refs: dict[int, tuple] = {}
        self._keepalive: list[np.ndarray] = []
        self.closed = False

    @property
    def n_arrays(self) -> int:
        """Number of distinct arrays promoted out of the task pickles."""
        return len(self._refs)

    def eligible(self, obj: Any) -> bool:
        """True when ``obj`` is an array worth promoting out of the pickle."""
        return (
            isinstance(obj, np.ndarray)
            and obj.dtype != object
            and not obj.dtype.hasobject
            and obj.nbytes >= self.min_bytes
        )

    def register(self, array: np.ndarray) -> tuple:
        """Store ``array`` (once) and return its reference."""
        if self.closed:
            raise MapReduceError("array plane is already closed")
        key = id(array)
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = self._store(array)
            self._keepalive.append(array)
        return ref

    def close(self) -> None:
        """Release every stored array; idempotent, never raises partway."""
        if self.closed:
            return
        self.closed = True
        self._release()
        self._refs.clear()
        self._keepalive.clear()

    def __enter__(self) -> "ArrayPlane":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _store(self, array: np.ndarray) -> tuple:
        raise NotImplementedError

    def _release(self) -> None:
        raise NotImplementedError


class _PlanePickler(pickle.Pickler):
    """Pickler that detours eligible arrays through the plane."""

    def __init__(self, file: io.BytesIO, plane: ArrayPlane | None) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._plane = plane

    def persistent_id(self, obj: Any) -> Any:
        plane = self._plane
        if plane is not None and plane.eligible(obj):
            return (_PID_TAG, plane.register(obj))
        return None


class _PlaneUnpickler(pickle.Unpickler):
    """Unpickler that resolves plane references through the transport."""

    def __init__(
        self, file: io.BytesIO, resolve: Callable[[tuple], np.ndarray]
    ) -> None:
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, pid: Any) -> Any:
        if isinstance(pid, tuple) and len(pid) == 2 and pid[0] == _PID_TAG:
            return self._resolve(pid[1])
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dumps(obj: Any, plane: ArrayPlane | None = None) -> bytes:
    """Pickle ``obj``, detouring large arrays through ``plane`` (if given)."""
    buffer = io.BytesIO()
    _PlanePickler(buffer, plane).dump(obj)
    return buffer.getvalue()


def loads(payload: bytes, resolve: Callable[[tuple], np.ndarray]) -> Any:
    """Inverse of :func:`dumps`; plane references go through ``resolve``."""
    return _PlaneUnpickler(io.BytesIO(payload), resolve).load()
