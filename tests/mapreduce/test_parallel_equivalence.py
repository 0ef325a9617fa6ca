"""Parallel/serial equivalence of the map-reduce-backed core pipeline.

The contract under test: ``Corpus.build_index`` and ``CorpusIndex.query``
with ``executor="thread"``/``"process"`` (``n_workers=4``) or
``executor="cluster"`` (a real 2-host localhost cluster) must produce
**bit-identical** results to the serial path under a fixed seed, and the
engine's shuffle must be deterministic no matter in which order
intermediate pairs arrive.  For the process executor this additionally
proves every framework job and its payloads pickle cleanly and survive the
shared-memory detour; for the cluster executor, that they survive a socket
hop to another OS process and the spool/socket artifact plane.
"""

import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import corpus as corpus_module
from repro.core import significance
from repro.core.clause import Clause
from repro.core.corpus import Corpus
from repro.core.operator import domain_chunks, enumerate_pair_tasks
from repro.mapreduce.engine import LocalEngine, ShuffleFolder
from repro.mapreduce.job import MapReduceJob
from repro.spatial.city import CityModel
from repro.data.dataset import Dataset
from repro.data.schema import DatasetSchema
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution
from repro.utils.errors import MapReduceError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from _reference_relation import reference_relation  # noqa: E402

HOUR = 3600


def correlated_corpus(seed=0, n_hours=1200):
    """Three city/hour data sets: two related, one noise (like §6.2)."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n_hours, dtype=np.int64) * HOUR
    t = np.arange(n_hours)
    base = 10 + 1.5 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, n_hours)
    ups = rng.choice(n_hours - 6, 25, replace=False)
    downs = rng.choice(n_hours - 6, 25, replace=False)
    a = base.copy()
    b = 5 + 0.8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, n_hours)
    for e in ups:
        a[e : e + 4] += 8
        b[e : e + 4] += 6
    for e in downs:
        a[e : e + 4] -= 8
        b[e : e + 4] -= 6
    noise = 10 + rng.normal(0, 1.0, n_hours)

    def city_dataset(name, values):
        schema = DatasetSchema(
            name,
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
            numeric_attributes=("v",),
        )
        return Dataset(schema, timestamps=ts, numerics={"v": values})

    city = CityModel.synthetic(nbhd_grid=(3, 3), zip_grid=(2, 2))
    return Corpus(
        [
            city_dataset("alpha", a),
            city_dataset("beta", b),
            city_dataset("gamma", noise),
        ],
        city,
    )


def assert_indexes_identical(index1, index2):
    assert list(index1.datasets) == list(index2.datasets)
    for name, ds1 in index1.datasets.items():
        ds2 = index2.datasets[name]
        assert list(ds1.functions) == list(ds2.functions)
        for key, fns1 in ds1.functions.items():
            fns2 = ds2.functions[key]
            assert [f.function_id for f in fns1] == [f.function_id for f in fns2]
            for f1, f2 in zip(fns1, fns2):
                assert np.array_equal(f1.function.values, f2.function.values)
                for feature_type in ("salient", "extreme"):
                    s1 = f1.feature_set(feature_type)
                    s2 = f2.feature_set(feature_type)
                    assert np.array_equal(s1.positive, s2.positive)
                    assert np.array_equal(s1.negative, s2.negative)


def assert_query_results_identical(r1, r2):
    assert (r1.n_evaluated, r1.n_candidates, r1.n_significant) == (
        r2.n_evaluated,
        r2.n_candidates,
        r2.n_significant,
    )
    assert [(rep.dataset1, rep.dataset2) for rep in r1.reports] == [
        (rep.dataset1, rep.dataset2) for rep in r2.reports
    ]
    rows1 = [
        (x.function1, x.function2, x.feature_type, x.score, x.strength,
         x.p_value, x.n_related, x.precision, x.recall)
        for x in r1.results
    ]
    rows2 = [
        (x.function1, x.function2, x.feature_type, x.score, x.strength,
         x.p_value, x.n_related, x.precision, x.recall)
        for x in r2.results
    ]
    assert rows1 == rows2


#: The parallel backends every equivalence test runs against.  "cluster"
#: resolves to the session-scoped 2-host localhost cluster (real worker
#: processes over TCP, see tests/conftest.py).
PARALLEL_EXECUTORS = ("thread", "process", "cluster")


@pytest.fixture(params=PARALLEL_EXECUTORS)
def parallel_kwargs(request):
    """Engine kwargs for one parallel backend.

    Thread/process engines are built per call from the simple knobs; the
    cluster executor needs live workers, so it passes the shared
    ``cluster_engine`` explicitly (lazily instantiated on first use).
    """
    if request.param == "cluster":
        return {"engine": request.getfixturevalue("cluster_engine")}
    return {"n_workers": 4, "executor": request.param}


class TestCorpusParallelEquivalence:
    @pytest.fixture(scope="class")
    def corpus(self):
        return correlated_corpus()

    @pytest.fixture(scope="class")
    def serial_index(self, corpus):
        return corpus.build_index(temporal=(TemporalResolution.HOUR,))

    def test_build_index_parallel_matches_serial(
        self, corpus, serial_index, parallel_kwargs
    ):
        parallel = corpus.build_index(
            temporal=(TemporalResolution.HOUR,), **parallel_kwargs
        )
        assert_indexes_identical(serial_index, parallel)
        assert (
            serial_index.stats.n_scalar_functions
            == parallel.stats.n_scalar_functions
        )
        assert serial_index.stats.n_feature_sets == parallel.stats.n_feature_sets
        assert serial_index.stats.function_bytes == parallel.stats.function_bytes
        assert serial_index.stats.feature_bytes == parallel.stats.feature_bytes
        assert serial_index.stats.raw_bytes == parallel.stats.raw_bytes

    def test_query_parallel_matches_serial(self, corpus, serial_index, parallel_kwargs):
        serial = serial_index.query(n_permutations=150, seed=0)
        parallel = serial_index.query(n_permutations=150, seed=0, **parallel_kwargs)
        assert_query_results_identical(serial, parallel)
        assert serial.n_significant >= 1  # the planted pair survives

    def test_query_on_parallel_index_matches(
        self, corpus, serial_index, parallel_kwargs
    ):
        parallel_index = corpus.build_index(
            temporal=(TemporalResolution.HOUR,), **parallel_kwargs
        )
        serial = serial_index.query(n_permutations=60, seed=3)
        parallel = parallel_index.query(n_permutations=60, seed=3, **parallel_kwargs)
        assert_query_results_identical(serial, parallel)

    def test_process_index_shares_no_segments_afterwards(self, corpus):
        from repro.mapreduce import shm

        corpus.build_index(
            temporal=(TemporalResolution.HOUR,), n_workers=2, executor="process"
        )
        assert shm.live_segments() == frozenset()

    def test_generator_seed_parity(self, serial_index):
        serial = serial_index.query(n_permutations=40, seed=np.random.default_rng(11))
        parallel = serial_index.query(
            n_permutations=40,
            seed=np.random.default_rng(11),
            n_workers=4,
            executor="thread",
        )
        assert_query_results_identical(serial, parallel)

    def test_explicit_engine_override(self, serial_index):
        engine = LocalEngine(n_workers=2, executor="thread", map_chunk_size=3)
        serial = serial_index.query(n_permutations=40, seed=0)
        parallel = serial_index.query(n_permutations=40, seed=0, engine=engine)
        assert_query_results_identical(serial, parallel)

    def test_query_accepts_tuple_dataset_lists(self, serial_index):
        by_tuple = serial_index.query(
            datasets1=("alpha", "beta"), n_permutations=20, seed=0
        )
        by_list = serial_index.query(
            datasets1=["alpha", "beta"], n_permutations=20, seed=0
        )
        assert_query_results_identical(by_tuple, by_list)

    def test_query_job_stats_exposed(self, serial_index):
        result = serial_index.query(
            n_permutations=20, seed=0, n_workers=2, executor="thread"
        )
        assert result.job_stats is not None
        assert result.job_stats.n_map_chunks >= 1
        # One reducer per data set pair that has a survivor to reassemble.
        assert result.n_significant >= 1
        assert len(result.job_stats.reduce_task_seconds) == sum(
            bool(report.results) for report in result.reports
        )


class TestDomainChunksAcrossExecutors:
    """A query's map tasks are domain chunks: candidates of many data set
    pairs in one task, which therefore emits to several reducers, and the
    region graph's toroidal-shift family travelling with them."""

    SETTINGS = dict(n_permutations=60, seed=5)

    @pytest.fixture(scope="class")
    def expected_reports(self, small_urban_index):
        datasets = small_urban_index.datasets
        names = sorted(datasets)
        return {
            (a, b): reference_relation(datasets[a], datasets[b], **self.SETTINGS)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        }

    @staticmethod
    def by_pair(result):
        return {(r.dataset1, r.dataset2): r for r in result.reports}

    def test_one_chunk_spans_several_data_set_pairs(self, small_urban_index):
        names = sorted(small_urban_index.datasets)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        plans = enumerate_pair_tasks(
            small_urban_index.datasets, pairs, set(names), Clause(), 5, None
        )
        chunks = domain_chunks(plans, 60, "batched")
        spans = [
            (maps is not None, len({(t.dataset1, t.dataset2) for t in tasks}))
            for _key, (tasks, maps) in chunks
        ]
        # Both kinds of domain: toroidal (family attached) and rotation.
        assert max(n for spatial, n in spans if spatial) >= 3
        assert max(n for spatial, n in spans if not spatial) >= 3
        assert len(chunks) < len(pairs)

    def test_all_pairs_query_equals_the_per_pair_reference(
        self, small_urban_index, expected_reports, parallel_kwargs
    ):
        for mode in ("exact", "batched"):
            result = small_urban_index.query(
                significance_mode=mode, **self.SETTINGS, **parallel_kwargs
            )
            assert self.by_pair(result) == expected_reports
            assert result.n_significant >= 5

    def test_all_pairs_query_under_the_environment_s_executor(
        self, small_urban_index, expected_reports
    ):
        # No engine argument: the process and cluster CI replays steer this
        # one through $REPRO_EXECUTOR.
        result = small_urban_index.query(significance_mode="batched", **self.SETTINGS)
        assert self.by_pair(result) == expected_reports

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("mode", ["batched", "adaptive"])
    def test_map_tasks_never_build_a_family(self, small_urban_index, executor, mode):
        # The serial run leaves the driver's cache holding the family.
        serial = small_urban_index.query(significance_mode=mode, **self.SETTINGS)
        real = corpus_module.evaluate_pair_chunk

        def in_a_worker_that_holds_no_family(*args, **kwargs):
            significance._TOROIDAL_CACHE.clear()
            return real(*args, **kwargs)

        with (
            mock.patch.dict(significance._TOROIDAL_CACHE),
            mock.patch.object(
                corpus_module, "evaluate_pair_chunk", in_a_worker_that_holds_no_family
            ),
            mock.patch.object(
                significance,
                "toroidal_map",
                side_effect=AssertionError("a map task built a toroidal family"),
            ),
        ):
            parallel = small_urban_index.query(
                significance_mode=mode, n_workers=2, executor=executor, **self.SETTINGS
            )
        assert_query_results_identical(serial, parallel)
        assert any(r.spatial is SpatialResolution.NEIGHBORHOOD for r in serial.results)


class PartialSumJob(MapReduceJob):
    """Toy job whose reduce output depends on value order (running max)."""

    def map(self, key, value):
        for i, v in enumerate(value):
            yield key % 2, (key, i, v)

    def reduce(self, key, values):
        # Deliberately order sensitive: concatenation of the value stream.
        yield key, tuple(values)


def global_tag_sort_grouping(tagged):
    """The shuffle's oracle: group the globally tag-sorted pair stream."""
    groups = {}
    for _tag, key, value in sorted(tagged, key=lambda pair: pair[0]):
        groups.setdefault(key, []).append(value)
    return list(groups.items())


#: 20 inputs x 3 emits over 4 keys, scrambled by a seeded RNG — the
#: hand-written case the property below generalizes.
FIXED_PAIRS = [
    ((input_index, emit_index), input_index % 4)
    for input_index in range(20)
    for emit_index in range(3)
]
random.Random(7).shuffle(FIXED_PAIRS)


class TestEngineDeterminism:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 30), st.integers(0, 5)), st.integers(0, 4)
            ),
            unique_by=lambda pair: pair[0],
            max_size=60,
        ),
        cuts=st.lists(st.integers(0, 60), max_size=8),
    )
    @example(pairs=FIXED_PAIRS, cuts=[7, 8, 30])
    def test_fold_equals_global_tag_sort(self, pairs, cuts):
        """Any partition of the tagged pairs into map results, folded in any
        arrival order, groups exactly like the global tag sort.  ``pairs``
        is (tag, key) in arrival order; ``cuts`` splits it into results."""
        tagged = [(tag, key, (tag, key)) for tag, key in pairs]
        bounds = [0, *sorted(min(cut, len(tagged)) for cut in cuts), len(tagged)]
        folder = ShuffleFolder()
        for lo, hi in zip(bounds, bounds[1:]):
            folder.add(tagged[lo:hi])
        assert folder.finalize() == global_tag_sort_grouping(tagged)

    def test_order_sensitive_reduce_is_stable_across_executors(self):
        inputs = [(k, list(range(k + 1))) for k in range(10)]
        serial, _ = LocalEngine().run(PartialSumJob(), inputs)
        for n_workers in (2, 4):
            for chunk in (None, 2, "auto"):
                threaded, _ = LocalEngine(
                    n_workers=n_workers, executor="thread", map_chunk_size=chunk
                ).run(PartialSumJob(), inputs)
                assert threaded == serial

    def test_chunked_map_partitions(self):
        inputs = [(k, [k]) for k in range(10)]
        engine = LocalEngine(n_workers=2, executor="thread", map_chunk_size=4)
        outputs, stats = engine.run(PartialSumJob(), inputs)
        assert stats.n_map_chunks == 3  # ceil(10 / 4)
        assert len(stats.map_task_seconds) == 3
        serial_outputs, serial_stats = LocalEngine().run(PartialSumJob(), inputs)
        assert serial_stats.n_map_chunks == 10
        assert outputs == serial_outputs

    def test_auto_chunking_scales_with_workers(self):
        inputs = [(k, [k]) for k in range(64)]
        engine = LocalEngine(n_workers=4, executor="thread", map_chunk_size="auto")
        _, stats = engine.run(PartialSumJob(), inputs)
        # ceil(64 / (4 workers * 4 tasks-per-worker)) = 4 inputs per chunk.
        assert stats.n_map_chunks == 16
        serial = LocalEngine(map_chunk_size="auto")
        _, serial_stats = serial.run(PartialSumJob(), inputs)
        assert serial_stats.n_map_chunks == 64  # auto is a no-op when serial

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(MapReduceError):
            LocalEngine(map_chunk_size=0)
        with pytest.raises(MapReduceError):
            LocalEngine(map_chunk_size="huge")
