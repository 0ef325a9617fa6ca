"""Shared-memory transport of the array plane (the ``"process"`` executor).

:class:`SharedArrayPlane` is the :class:`~repro.mapreduce.plane.ArrayPlane`
whose store is a ``multiprocessing.shared_memory`` segment per distinct
array; pool workers :func:`attach` zero-copy, read-only views onto the same
physical pages.  Dedup, eligibility and the pickler are the plane's
(:mod:`repro.mapreduce.plane`); this module adds only what is particular to
segments:

* **Cleanup is observable** — :meth:`SharedArrayPlane.close` unlinks every
  segment even when a task raised, and the module-level
  :func:`live_segments` registry lets tests assert nothing leaked.
* **Workers never unlink** — attachments are *untracked*: only the creating
  process registers a segment with its ``resource_tracker``.  Attaching
  with tracking enabled is a well-known CPython pitfall before 3.13's
  ``track=False``: depending on when the worker was forked relative to the
  first registration, its registrations land either in the parent's tracker
  (where an unregister would erase the creator's entry) or in a lazily
  spawned per-worker tracker (which then reports every attachment as a leak
  at worker exit — or worse, unlinks live segments).  :func:`attach` uses
  ``track=False`` where available and suppresses the registration call on
  older interpreters.  The owning engine controls the segment lifetime
  alone.
"""

from __future__ import annotations

import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..utils.errors import MapReduceError
# ``dumps``/``loads`` are the plane's; the process executor reaches them as
# ``shm.dumps`` / ``shm.loads`` so its pickling stays one patchable module
# attribute, apart from the cluster's use of the same functions.
from .plane import DEFAULT_MIN_BYTES, ArrayPlane, dumps, loads  # noqa: F401

#: Segment names are ``repro_shm_<token>``; tests scan for this prefix.
SEGMENT_PREFIX = "repro_shm_"

#: Names of segments created by this process that are not yet unlinked.
#: :meth:`SharedArrayPlane.close` drains it; tests assert it is empty after
#: every engine run, including runs that failed.
_LIVE_SEGMENTS: set[str] = set()

#: Worker-side attachment cache: segment name -> (handle, base array).
#: One attach per segment per worker, no matter how many payloads reference
#: it; entries live until :func:`detach_all` or process exit.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering with the resource tracker.

    Python 3.13+ supports this directly (``track=False``); on older
    interpreters the registration call is suppressed for the duration of the
    constructor.  Attaching processes are single-threaded pool workers (or a
    test in the creating process, whose create-time registration already
    stands), so the brief suppression cannot swallow a concurrent register.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def live_segments() -> frozenset[str]:
    """Names of segments this process created and has not yet unlinked."""
    return frozenset(_LIVE_SEGMENTS)


class SharedArrayPlane(ArrayPlane):
    """The array plane over shared-memory segments (one per distinct array)."""

    def __init__(self, min_bytes: int = DEFAULT_MIN_BYTES) -> None:
        super().__init__(min_bytes)
        self._segments: list[shared_memory.SharedMemory] = []

    @property
    def shared_bytes(self) -> int:
        """Total payload bytes resident in shared memory."""
        return sum(segment.size for segment in self._segments)

    def _store(self, array: np.ndarray) -> tuple:
        """Copy ``array`` into a fresh segment.

        The reference is a small picklable tuple ``(name, dtype, shape)``;
        :func:`attach` turns it back into a read-only view in any process.
        """
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes, name=name)
        _LIVE_SEGMENTS.add(name)
        self._segments.append(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array  # handles non-contiguous sources too
        return (name, array.dtype.str, array.shape)

    def _release(self) -> None:
        """Unlink every segment, making progress past individual failures.

        Called from the engine's ``finally`` block: a segment the OS already
        reclaimed must not strand its siblings.
        """
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_SEGMENTS.discard(segment.name)
        self._segments.clear()


def attach(ref: tuple) -> np.ndarray:
    """Materialize a registered array as a read-only shared view.

    Attachments are cached per process and never tracked by the resource
    tracker — the creating process owns the segment lifetime (see module
    docstring).
    """
    name, dtype, shape = ref
    cached = _ATTACHED.get(name)
    if cached is None:
        try:
            segment = _open_untracked(name)
        except FileNotFoundError as exc:
            raise MapReduceError(
                f"shared-memory segment {name!r} vanished before the worker "
                "attached (plane closed too early?)"
            ) from exc
        base = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        base.flags.writeable = False
        _ATTACHED[name] = (segment, base)
        return base
    segment, base = cached
    return base


def detach_all() -> None:
    """Drop every cached attachment (test isolation / worker teardown)."""
    for segment, _base in _ATTACHED.values():
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - view still held
            pass
    _ATTACHED.clear()
