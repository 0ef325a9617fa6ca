"""ClusterEngine contract tests on a real localhost cluster.

The contract mirrors the process executor's: bit-identical outputs to
serial for any deterministic job, job failures surfacing with the original
traceback (library errors keeping their type), and leak-free teardown —
plus the cluster-only pieces: the artifact data plane and the env plumbing
that registers ``executor="cluster"`` behind ``default_engine``.

Job classes live at module scope so workers can unpickle them by reference
(``local_cluster`` propagates ``sys.path`` to its workers).
"""

import os
import socket

import numpy as np
import pytest

from repro.distributed import ClusterEngine, local_cluster
from repro.mapreduce.engine import LocalEngine, default_engine
from repro.mapreduce.job import Engine, MapReduceJob
from repro.utils.errors import MapReduceError, PersistError


class WordCount(MapReduceJob):
    def map(self, key, value):
        for word in value.split():
            yield word.lower(), 1

    def reduce(self, key, values):
        yield key, sum(values)


class OrderSensitiveJob(MapReduceJob):
    """Reduce output depends on value order: pins the shuffle guarantee."""

    def map(self, key, value):
        for i, v in enumerate(value):
            yield key % 3, (key, i, v)

    def reduce(self, key, values):
        yield key, tuple(values)


class ArraySumJob(MapReduceJob):
    """Ships a large matrix per input — exercises the artifact plane."""

    def map(self, key, value):
        yield key % 2, float(value.sum())

    def reduce(self, key, values):
        yield key, sum(values)


class ExplodingMapJob(MapReduceJob):
    def map(self, key, value):
        if key == 2:
            raise ValueError("planted map failure")
        yield key, value

    def reduce(self, key, values):
        yield key, values


class LibraryErrorJob(MapReduceJob):
    def map(self, key, value):
        raise PersistError("checksum mismatch for partition 3")

    def reduce(self, key, values):  # pragma: no cover - never reached
        yield key, values


DOCS = [(1, "the quick brown fox"), (2, "the lazy dog"), (3, "the quick dog")]


@pytest.fixture(scope="module")
def engine():
    with local_cluster(2) as cluster:
        yield cluster


class TestClusterEquivalence:
    def test_wordcount_matches_serial(self, engine):
        serial, _ = LocalEngine().run(WordCount(), DOCS)
        clustered, stats = engine.run(WordCount(), DOCS)
        assert clustered == serial
        assert stats.n_map_chunks >= 1
        assert len(stats.map_task_seconds) == stats.n_map_chunks
        assert len(stats.reduce_task_seconds) == len(dict(serial))
        assert stats.n_outputs == len(serial)

    @pytest.mark.parametrize("granularity", [1, 2, "auto"])
    def test_order_sensitive_reduce_is_stable(self, engine, granularity):
        inputs = [(k, list(range(k + 1))) for k in range(10)]
        serial, _ = LocalEngine().run(OrderSensitiveJob(), inputs)
        engine.steal_granularity = granularity
        try:
            clustered, _ = engine.run(OrderSensitiveJob(), inputs)
        finally:
            engine.steal_granularity = "auto"
        assert clustered == serial

    def test_large_arrays_travel_through_the_plane(self, engine):
        rng = np.random.default_rng(3)
        big = rng.normal(0, 1, 50_000)  # 400 KB, well above the threshold
        inputs = [(i, big) for i in range(5)]
        serial, _ = LocalEngine().run(ArraySumJob(), inputs)
        clustered, _ = engine.run(ArraySumJob(), inputs)
        assert clustered == serial
        # The run's spool artifacts are gone the moment run() returns.
        spool = engine.coordinator.spool_dir
        assert list(spool.glob("*.npy")) == []

    @pytest.mark.parametrize("backend", ["cluster", "local"])
    def test_empty_input_reports_on_itself(self, engine, backend):
        """An empty run (e.g. a query whose data sets share no resolution)
        gets its own zeroed report — not the previous run's steals,
        retries or fallback reason — on every engine."""
        runner = engine if backend == "cluster" else LocalEngine()
        runner.run(WordCount(), DOCS)
        assert runner.last_run_report.n_map_tasks > 0
        outputs, stats = runner.run(WordCount(), [])
        assert outputs == []
        assert stats.n_outputs == 0
        report = runner.last_run_report
        assert report.n_map_tasks == report.n_reduce_tasks == report.n_outputs == 0
        assert report.worker_tasks == {} and report.worker_steals == {}
        assert (report.retries, report.fallback, report.n_artifacts) == (0, None, 0)
        if backend == "cluster":
            assert engine.last_run_worker_tasks == {} and engine.last_run_retries == 0

    def test_concurrent_runs_share_the_cluster_safely(self, engine):
        """Two application threads driving one engine must not interleave
        frames on the worker sockets — phases take turns, results stay
        bit-identical for both runs."""
        import threading

        inputs_a = [(k, list(range(k + 1))) for k in range(8)]
        inputs_b = [(k, f"text {k} " * (k + 1)) for k in range(8)]
        serial_a, _ = LocalEngine().run(OrderSensitiveJob(), inputs_a)
        serial_b, _ = LocalEngine().run(WordCount(), inputs_b)
        results: dict[str, list] = {}

        def run(name, job, inputs):
            results[name], _ = engine.run(job, inputs)

        threads = [
            threading.Thread(
                target=run, args=("a", OrderSensitiveJob(), inputs_a)
            ),
            threading.Thread(target=run, args=("b", WordCount(), inputs_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results["a"] == serial_a
        assert results["b"] == serial_b

    def test_implements_engine_contract(self, engine):
        assert isinstance(engine, Engine)
        assert engine.executor == "cluster"
        assert engine.n_workers == 2
        assert engine.is_parallel


class TestClusterErrors:
    def test_map_failure_carries_original_traceback(self, engine):
        with pytest.raises(MapReduceError) as excinfo:
            engine.run(ExplodingMapJob(), DOCS)
        message = str(excinfo.value)
        assert "ValueError: planted map failure" in message
        assert "Traceback (most recent call last)" in message
        assert "map task failed on cluster worker" in message

    def test_library_errors_keep_their_type(self, engine):
        with pytest.raises(PersistError, match="checksum mismatch") as excinfo:
            engine.run(LibraryErrorJob(), DOCS)
        cause = excinfo.value.__cause__
        assert isinstance(cause, MapReduceError)
        assert "Traceback (most recent call last)" in str(cause)

    def test_workers_survive_job_failures(self, engine):
        with pytest.raises(MapReduceError):
            engine.run(ExplodingMapJob(), DOCS)
        serial, _ = LocalEngine().run(WordCount(), DOCS)
        clustered, _ = engine.run(WordCount(), DOCS)
        assert clustered == serial
        assert len(engine.coordinator.alive_workers()) == 2


class TestTeardownHygiene:
    def test_local_cluster_teardown_is_leak_free(self):
        with local_cluster(2) as engine:
            serial, _ = LocalEngine().run(WordCount(), DOCS)
            clustered, _ = engine.run(WordCount(), DOCS)
            assert clustered == serial
            spool = engine.coordinator.spool_dir
            host, port = engine.address
            pids = engine.coordinator.worker_pids()
            assert len(pids) == 2
        # Spool directory removed...
        assert not spool.exists()
        # ...listener closed (nothing accepts on the port anymore)...
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0).close()
        # ...and both worker processes exited (reaped by local_cluster).
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestEngineValidationAndPlumbing:
    def test_local_engine_rejects_cluster_with_a_hint(self):
        with pytest.raises(MapReduceError, match="distributed backend"):
            LocalEngine(executor="cluster")

    def test_cluster_engine_validates_knobs(self):
        with pytest.raises(MapReduceError):
            ClusterEngine(bind="nonsense")
        with pytest.raises(MapReduceError):
            ClusterEngine(n_workers=0)
        with pytest.raises(MapReduceError):
            ClusterEngine(min_artifact_bytes=0)

    def test_default_engine_builds_cluster_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:7199")
        engine = default_engine()
        assert isinstance(engine, ClusterEngine)
        assert engine.executor == "cluster"
        assert engine.n_workers == 3
        assert engine.shared  # env-steered engines share one coordinator

    def test_explicit_cluster_argument_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:7199")
        engine = default_engine(n_workers=2, executor="cluster")
        assert isinstance(engine, ClusterEngine)
        assert engine.n_workers == 2

    def test_invalid_repro_executor_names_variable_and_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "gpu")
        with pytest.raises(MapReduceError) as excinfo:
            default_engine()
        message = str(excinfo.value)
        assert "REPRO_EXECUTOR" in message
        for name in ("serial", "thread", "process", "cluster"):
            assert name in message
        assert "gpu" in message

    @pytest.mark.parametrize("bad", ["0", "-3", "many", "1.5"])
    def test_invalid_repro_workers_names_variable(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(MapReduceError) as excinfo:
            default_engine()
        message = str(excinfo.value)
        assert "REPRO_WORKERS" in message
        assert "integer >= 1" in message
        assert bad in message

    def test_invalid_repro_cluster_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
        monkeypatch.setenv("REPRO_CLUSTER", "not-an-address")
        with pytest.raises(MapReduceError, match="REPRO_CLUSTER"):
            default_engine()
