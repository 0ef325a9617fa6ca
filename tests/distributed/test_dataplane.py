"""Spool + socket transport tests (repro.distributed.dataplane).

The transport-independent plane contract lives in
``tests/mapreduce/test_plane_contract.py``; here is what only artifacts do:
spool-vs-socket preference, checksum verification and bounded re-fetch,
cache lifecycle.
"""

import numpy as np
import pytest

from repro.distributed.dataplane import ArtifactCache, ArtifactPlane
from repro.mapreduce.plane import dumps, loads
from repro.utils.errors import MapReduceError


@pytest.fixture
def plane(tmp_path):
    plane = ArtifactPlane(tmp_path / "spool", run_id="runX", min_bytes=1024)
    yield plane
    plane.close()


def no_fetch(name):  # a resolver transport that must not be used
    raise AssertionError(f"unexpected socket fetch of {name!r}")


class TestSpool:
    def test_close_removes_spool_files(self, tmp_path):
        plane = ArtifactPlane(tmp_path, run_id="r", min_bytes=1)
        plane.register(np.arange(100))
        assert len(list(tmp_path.glob("*.npy"))) == 1
        plane.close()
        assert list(tmp_path.glob("*.npy")) == []


class TestRoundTrip:
    def test_spool_transport_preferred_and_cached(self, plane):
        big = np.random.default_rng(0).normal(size=5000)  # 40 KB
        payloads = [dumps((i, big), plane) for i in range(4)]
        cache = ArtifactCache()
        resolver = lambda ref: cache.resolve(ref, no_fetch)  # noqa: E731
        for i, payload in enumerate(payloads):
            index, array = loads(payload, resolver)
            assert index == i
            assert np.array_equal(array, big)
        # One artifact, memory-mapped once, never fetched over the socket.
        assert plane.n_arrays == 1
        assert cache.n_mapped == 1
        assert cache.n_fetched == 0
        assert len(cache) == 1

    def test_socket_fallback_fetches_once(self, plane):
        big = np.arange(4096, dtype=np.float64)
        payloads = [dumps((i, big), plane) for i in range(3)]
        # Break the spool path (the worker is on another host).
        fetched = []

        def resolver(ref):
            name, dtype, shape, _path, digest = ref
            broken = (name, dtype, shape, "/nonexistent/spool/gone.npy", digest)

            def fetch(artifact_name):
                fetched.append(artifact_name)
                return plane.payload(artifact_name)

            return cache.resolve(broken, fetch)

        cache = ArtifactCache()
        for payload in payloads:
            _i, array = loads(payload, resolver)
            assert np.array_equal(array, big)
        assert fetched == [plane.register(big)[0]]  # exactly one fetch
        assert cache.n_fetched == 1

    def test_shape_dtype_mismatch_rejected(self, plane):
        big = np.arange(4096, dtype=np.float64)
        name, _dtype, _shape, path, digest = plane.register(big)
        cache = ArtifactCache()
        with pytest.raises(MapReduceError, match="reference says"):
            cache.resolve((name, "<f8", (7,), path, digest), no_fetch)

    def test_reference_carries_spool_checksum(self, plane):
        big = np.arange(4096, dtype=np.float64)
        name, _dtype, _shape, _path, digest = plane.register(big)
        import hashlib

        assert digest == hashlib.sha256(plane.payload(name)).hexdigest()
        assert plane.checksum(name) == digest
        with pytest.raises(MapReduceError, match="unknown artifact"):
            plane.checksum("never-registered")

    def test_unknown_artifact_payload_rejected(self, plane):
        with pytest.raises(MapReduceError, match="unknown artifact"):
            plane.payload("never-registered")


class TestCorruption:
    """Damaged transports must end in recovery or a typed error — never
    silently wrong bytes (the failure model of ``docs/ARCHITECTURE.md``)."""

    @staticmethod
    def _registered(plane):
        big = np.arange(4096, dtype=np.float64)
        return big, plane.register(big)

    def test_truncated_spool_file_falls_back_to_socket(self, plane):
        big, ref = self._registered(plane)
        name, _dtype, _shape, path, _digest = ref
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        cache = ArtifactCache()
        fetched = []

        def fetch(artifact_name):
            fetched.append(artifact_name)
            return data

        out = cache.resolve(ref, fetch)
        assert np.array_equal(out, big)
        assert fetched == [name]
        assert cache.n_fetched == 1 and cache.n_mapped == 0

    def test_truncated_spool_and_lost_socket_is_typed(self, plane):
        from repro.distributed.protocol import WireError

        _big, ref = self._registered(plane)
        _name, _dtype, _shape, path, _digest = ref
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])

        def fetch(_name):
            raise WireError("connection lost while receiving")

        cache = ArtifactCache()
        with pytest.raises(MapReduceError, match="materialized intact") as err:
            cache.resolve(ref, fetch)
        # The error names both legs: the unusable spool and each attempt.
        assert "spool" in str(err.value)
        assert "fetch attempt 3" in str(err.value)

    def test_bit_flipped_socket_bytes_retried_until_clean(self, plane):
        big, ref = self._registered(plane)
        name = ref[0]
        broken = (ref[0], ref[1], ref[2], "", ref[4])  # force socket path
        good = plane.payload(name)
        flipped = bytearray(good)
        flipped[len(flipped) // 2] ^= 0x40  # one bit, data region
        replies = [bytes(flipped), good]

        def fetch(_name):
            return replies.pop(0)

        cache = ArtifactCache()
        out = cache.resolve(broken, fetch)
        assert np.array_equal(out, big)
        assert replies == []  # corrupt reply consumed, then re-fetched

    def test_persistent_corruption_is_typed_not_silent(self, plane):
        _big, ref = self._registered(plane)
        broken = (ref[0], ref[1], ref[2], "", ref[4])
        good = plane.payload(ref[0])
        flipped = bytearray(good)
        flipped[-1] ^= 0x01

        cache = ArtifactCache()
        with pytest.raises(MapReduceError, match="checksum mismatch"):
            cache.resolve(broken, lambda _n: bytes(flipped))

    def test_reference_without_digest_is_malformed(self, plane):
        """One wire version: every reference carries its SHA-256.  A
        digest-less one is refused by name, never decoded unverified."""
        _big, ref = self._registered(plane)
        undigested = (ref[0], ref[1], ref[2], "", "")
        calls = []

        def fetch(name):
            calls.append(name)
            return plane.payload(name)

        cache = ArtifactCache()
        with pytest.raises(MapReduceError, match="malformed reference") as err:
            cache.resolve(undigested, fetch)
        assert ref[0] in str(err.value)
        assert calls == [] and len(cache) == 0

    def test_stale_run_reply_fails_fast_without_retry(self, plane):
        _big, ref = self._registered(plane)
        broken = (ref[0], ref[1], ref[2], "", ref[4])
        calls = []

        def fetch(name):
            calls.append(name)
            raise MapReduceError(f"artifact {name!r} belongs to a finished run")

        cache = ArtifactCache()
        with pytest.raises(MapReduceError, match="finished run"):
            cache.resolve(broken, fetch)
        assert len(calls) == 1  # permanent refusal: no pointless retries


class TestCacheLifecycle:
    def test_clear_by_run_id(self):
        cache = ArtifactCache()
        cache._arrays["runA-a00000"] = np.zeros(1)
        cache._arrays["runB-a00000"] = np.zeros(1)
        cache.clear("runA")
        assert list(cache._arrays) == ["runB-a00000"]
        cache.clear()
        assert len(cache) == 0
