"""Streaming-scheduler tests: stealing, elastic join, overlap determinism.

The scheduler's load-bearing promises, each pinned on a real localhost
cluster:

* **Work stealing** — a straggler holds at most its own prefetch pipeline;
  the fast worker completes the lion's share of a run's tasks.
* **Elastic join** — a worker that dials in mid-run receives ``JoinRun``
  immediately and steals real work.
* **Overlapped-reduce determinism** — map results land in scrambled orders
  (randomized per-input sleeps, fine steal granularity), and outputs stay
  bit-identical to serial, run after run.
* **Adaptive granularity** — a second run of the same job class sizes its
  tasks from the first run's measured throughput.

Job classes live at module scope so workers can unpickle them by reference
(``local_cluster`` propagates ``sys.path`` to its workers).
"""

import os
import threading
import time

import pytest

from repro.distributed import ClusterEngine, local_cluster
from repro.distributed.coordinator import spawn_local_worker
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.job import MapReduceJob
from repro.utils.errors import MapReduceError

#: Env var the straggler tests set on exactly one worker process; the job
#: reads it map-side, so one host computes slowly and the others don't.
SLEEP_ENV = "REPRO_TEST_MAP_SLEEP"


class EnvSleepJob(MapReduceJob):
    """Map sleeps by the worker's env — a controllable straggler."""

    def map(self, key, value):
        time.sleep(float(os.environ.get(SLEEP_ENV, "0")))
        yield key % 4, (key, value)

    def reduce(self, key, values):
        yield key, tuple(values)


class ScrambledSleepJob(MapReduceJob):
    """Per-input pseudo-random sleeps scramble completion order."""

    def map(self, key, value):
        # Deterministic per input, wildly uneven across inputs: completion
        # order across two hosts is effectively shuffled every run.
        time.sleep((key * 7919 % 13) / 400.0)
        yield key % 5, (key, value * 2)

    def reduce(self, key, values):
        yield key, (key, tuple(values))


class FixedSleepJob(MapReduceJob):
    """Uniform small sleep: gives adaptive granularity a clean signal."""

    def map(self, key, value):
        time.sleep(0.01)
        yield key % 3, value

    def reduce(self, key, values):
        yield key, sum(values)


def _serial(job, inputs):
    outputs, _ = LocalEngine(executor="serial").run(job, inputs)
    return outputs


class TestWorkStealing:
    def test_fast_worker_steals_from_straggler(self):
        inputs = [(i, i) for i in range(16)]
        job = EnvSleepJob()
        with local_cluster(
            2,
            worker_env=[{SLEEP_ENV: "0.25"}, None],
            steal_granularity=1,
        ) as engine:
            outputs, stats = engine.run(job, inputs)
        assert outputs == _serial(job, inputs)
        counts = engine.last_run_worker_tasks
        # host0 is the straggler: it may hold at most its prefetch pipeline
        # while host1 drains the queue.  Far more than half the tasks must
        # land on the fast host (16 maps + 4 reduces = 20 tasks total).
        assert sum(counts.values()) == stats.n_map_chunks + 4
        assert counts.get("host1", 0) > counts.get("host0", 0)
        assert counts.get("host1", 0) >= 12

    def test_straggler_holds_at_most_its_pipeline_at_a_time(self):
        # With prefetch_depth=1 the straggler computes one task at a time
        # and prefetches none: the fast worker takes everything else.
        inputs = [(i, i) for i in range(12)]
        job = EnvSleepJob()
        with local_cluster(
            2,
            worker_env=[{SLEEP_ENV: "0.4"}, None],
            steal_granularity=1,
            prefetch_depth=1,
        ) as engine:
            outputs, _ = engine.run(job, inputs)
        assert outputs == _serial(job, inputs)
        counts = engine.last_run_worker_tasks
        assert counts.get("host0", 0) <= 3


class TestElasticJoin:
    def test_late_worker_joins_mid_run_and_steals(self):
        inputs = [(i, i) for i in range(20)]
        job = EnvSleepJob()
        results = {}
        with local_cluster(
            1,
            worker_env=[{SLEEP_ENV: "0.2"}],
            steal_granularity=1,
        ) as engine:

            def drive():
                results["outputs"], results["stats"] = engine.run(job, inputs)

            thread = threading.Thread(target=drive)
            thread.start()
            # Let the lone (slow) worker get going, then dial in a fast one.
            time.sleep(0.8)
            late = spawn_local_worker(engine.address, "late-joiner")
            try:
                thread.join(timeout=120)
                assert not thread.is_alive()
            finally:
                late.terminate()
                late.wait(timeout=10)
        assert results["outputs"] == _serial(job, inputs)
        counts = engine.last_run_worker_tasks
        assert counts.get("late-joiner", 0) > 0, counts
        # Both hosts worked the same run.
        assert counts.get("host0", 0) > 0, counts


class TestOverlapDeterminism:
    def test_scrambled_completion_orders_stay_bit_identical(self):
        inputs = [(i, i) for i in range(24)]
        job = ScrambledSleepJob()
        expected = _serial(job, inputs)
        with local_cluster(2, steal_granularity=1) as engine:
            for _ in range(3):
                outputs, _ = engine.run(job, inputs)
                assert outputs == expected

    @pytest.mark.parametrize("granularity", [1, 3, "auto"])
    def test_determinism_across_steal_granularities(self, granularity):
        inputs = [(i, i) for i in range(17)]
        job = ScrambledSleepJob()
        with local_cluster(2, steal_granularity=granularity) as engine:
            outputs, _ = engine.run(job, inputs)
        assert outputs == _serial(job, inputs)


class TestAdaptiveGranularity:
    def test_second_run_resizes_tasks_from_measured_throughput(self):
        inputs = [(i, 1) for i in range(32)]
        job = FixedSleepJob()
        with local_cluster(2) as engine:  # steal_granularity defaults to "auto"
            _, first = engine.run(job, inputs)
            outputs, second = engine.run(job, inputs)
        assert outputs == _serial(job, inputs)
        # First run has no measurement: fine fallback split (8 tasks/host).
        # Second run measures ~10ms/input → targets ~20 inputs per task,
        # capped at 2 tasks per host — strictly coarser than the fallback.
        assert first.n_map_chunks > second.n_map_chunks
        assert second.n_map_chunks >= 1

    def test_fixed_granularity_pins_task_count(self):
        inputs = [(i, 1) for i in range(10)]
        job = FixedSleepJob()
        with local_cluster(2, steal_granularity=2) as engine:
            _, stats = engine.run(job, inputs)
        assert stats.n_map_chunks == 5


class TestKnobValidation:
    def test_bad_steal_granularity_rejected(self):
        with pytest.raises(MapReduceError, match="steal_granularity"):
            ClusterEngine(bind="127.0.0.1:0", steal_granularity="huge")
        with pytest.raises(MapReduceError, match="steal_granularity"):
            ClusterEngine(bind="127.0.0.1:0", steal_granularity=0)

    def test_bad_prefetch_depth_rejected(self):
        with pytest.raises(MapReduceError, match="prefetch_depth"):
            ClusterEngine(bind="127.0.0.1:0", prefetch_depth=0)

    def test_knobs_surface_on_engine(self):
        engine = ClusterEngine(
            bind="127.0.0.1:0",
            steal_granularity=4,
            prefetch_depth=3,
        )
        assert engine.steal_granularity == 4
        assert engine.prefetch_depth == 3
