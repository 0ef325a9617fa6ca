"""The array-plane contract, stated once for every transport.

Dedup by identity, eligibility, read-only resolution, idempotent cleanup
and the pickler's foreign-pid rejection are properties of
:mod:`repro.mapreduce.plane`; they must hold whichever way the arrays
travel — shared-memory segments (process executor), spool memory-maps or
verified socket fetches (cluster).  Transport-specific behaviour (segment
leak registry, spool-vs-socket preference, corruption and retry, cache
lifecycle) is tested next to each transport.
"""

import io
import pickle

import numpy as np
import pytest

from repro.distributed.dataplane import ArtifactCache, ArtifactPlane
from repro.mapreduce import shm
from repro.mapreduce.plane import dumps, loads
from repro.utils.errors import MapReduceError

MIN_BYTES = 1024


def _no_fetch(name):
    raise AssertionError(f"unexpected socket fetch of {name!r}")


@pytest.fixture(params=["shm", "spool", "socket"])
def transport(request, tmp_path):
    """``(plane, resolve)`` of one transport; closed and detached after."""
    if request.param == "shm":
        shm.detach_all()
        plane, resolve = shm.SharedArrayPlane(min_bytes=MIN_BYTES), shm.attach
    else:
        plane = ArtifactPlane(tmp_path / "spool", run_id="runX", min_bytes=MIN_BYTES)
        cache = ArtifactCache()
        if request.param == "spool":
            resolve = lambda ref: cache.resolve(ref, _no_fetch)  # noqa: E731
        else:  # the worker is on another host: no usable spool path

            def resolve(ref):
                name, dtype, shape, _path, digest = ref
                return cache.resolve((name, dtype, shape, "", digest), plane.payload)

    yield plane, resolve
    plane.close()
    shm.detach_all()


def test_same_array_registers_once_by_identity(transport):
    plane, _resolve = transport
    array = np.ones(4096, dtype=np.float64)
    assert plane.register(array) == plane.register(array)
    assert plane.n_arrays == 1


def test_distinct_arrays_get_distinct_references(transport):
    plane, _resolve = transport
    a = np.ones(4096, dtype=np.float64)
    b = np.ones(4096, dtype=np.float64)  # equal values, distinct object
    assert plane.register(a) != plane.register(b)
    assert plane.n_arrays == 2


def test_small_object_and_non_arrays_are_ineligible(transport):
    plane, resolve = transport
    assert plane.eligible(np.zeros(MIN_BYTES // 8))
    assert not plane.eligible(np.zeros(8))  # below min_bytes
    assert not plane.eligible(np.array([object()] * 2000))
    assert not plane.eligible([1.0] * 5000)  # not an ndarray
    small = np.arange(8, dtype=np.float64)
    out = loads(dumps(small, plane), resolve)  # stays inside the pickle
    assert np.array_equal(out, small) and out.flags.writeable
    assert plane.n_arrays == 0


def test_round_trip_preserves_values_dtype_shape_and_identity(transport):
    plane, resolve = transport
    big = np.arange(9000, dtype=np.float64).reshape(90, 100)
    first, second, n = loads(dumps((big, big, 7), plane), resolve)
    assert np.array_equal(first, big)
    assert (first.dtype, first.shape, n) == (big.dtype, big.shape, 7)
    assert first is second  # one reference, one resolved array
    assert plane.n_arrays == 1


def test_non_contiguous_source_round_trips(transport):
    plane, resolve = transport
    strided = np.arange(20000, dtype=np.float64).reshape(100, 200)[::2, ::3]
    assert not strided.flags.c_contiguous
    assert np.array_equal(loads(dumps(strided, plane), resolve), strided)


def test_resolved_arrays_are_read_only(transport):
    plane, resolve = transport
    view = loads(dumps(np.zeros(2048, dtype=np.float64), plane), resolve)
    with pytest.raises(ValueError):
        view[0] = 1.0


def test_close_is_idempotent_and_rejects_later_registration(transport):
    plane, _resolve = transport
    plane.register(np.zeros(2048, dtype=np.float64))
    plane.close()
    plane.close()
    assert plane.n_arrays == 0
    with pytest.raises(MapReduceError, match="closed"):
        plane.register(np.zeros(2048, dtype=np.float64))


def test_foreign_persistent_id_rejected(transport):
    _plane, resolve = transport

    class EvilPickler(pickle.Pickler):
        def persistent_id(self, obj):
            return "not-our-pid" if isinstance(obj, float) else None

    buffer = io.BytesIO()
    EvilPickler(buffer).dump(3.14)
    with pytest.raises(pickle.UnpicklingError):
        loads(buffer.getvalue(), resolve)


def test_invalid_min_bytes_rejected(tmp_path):
    with pytest.raises(MapReduceError):
        shm.SharedArrayPlane(min_bytes=0)
    with pytest.raises(MapReduceError):
        ArtifactPlane(tmp_path, run_id="r", min_bytes=0)
