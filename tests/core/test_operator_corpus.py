"""Tests for the relation() operator, clauses, and corpus indexing/querying."""

from unittest import mock

import numpy as np
import pytest
from _reference_relation import reference_relation

from repro.core.clause import Clause
from repro.core.corpus import Corpus, CorpusIndex
from repro.core.features import FeatureExtractor, FeatureSet, FunctionFeatures
from repro.core.operator import (
    DatasetIndex,
    IndexedFunction,
    enumerate_pair_tasks,
    relation,
)
from repro.core.scalar_function import ScalarFunction
from repro.data.dataset import Dataset
from repro.data.schema import DatasetSchema
from repro.spatial.city import CityModel
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution
from repro.utils.errors import DataError, QueryError

HOUR = 3600


def make_indexed(name, values, temporal=TemporalResolution.HOUR, step_offset=0):
    sf = ScalarFunction.time_series(
        f"{name}.v",
        np.asarray(values, dtype=float),
        temporal,
        step_labels=np.arange(step_offset, step_offset + len(values)),
    )
    features = FeatureExtractor().extract(sf)
    index = DatasetIndex(dataset=name)
    index.functions[(SpatialResolution.CITY, temporal)] = [
        IndexedFunction(function=sf, features=features)
    ]
    return index


def correlated_series(seed=0, n=1200):
    """Two urban-like series sharing two-signed events.

    A diurnal cycle plus co-occurring spikes AND dips: the cycle keeps the
    persistence clusters separable (like real count functions), and
    two-signed events keep the score statistic non-degenerate under
    rotation nulls.  Event counts are chosen so the null produces ~10
    simultaneous block overlaps per rotation: P(|tau_k| = 1) ~ 2^(1-m),
    so tau* = 1 becomes decisively rare under the null.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = 10 + 1.5 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, n)
    ups = rng.choice(n - 6, 25, replace=False)
    downs = rng.choice(n - 6, 25, replace=False)
    a = base.copy()
    b = 5 + 0.8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, n)
    for e in ups:
        a[e : e + 4] += 8
        b[e : e + 4] += 6
    for e in downs:
        a[e : e + 4] -= 8
        b[e : e + 4] -= 6
    return a, b


class TestClause:
    def test_validation(self):
        with pytest.raises(QueryError):
            Clause(min_score=1.5)
        with pytest.raises(QueryError):
            Clause(min_strength=-0.1)
        with pytest.raises(QueryError):
            Clause(alpha=0.0)
        with pytest.raises(QueryError):
            Clause(feature_types=("weird",))

    def test_admits_resolution(self):
        clause = Clause(temporal=(TemporalResolution.DAY,))
        assert clause.admits_resolution(SpatialResolution.CITY, TemporalResolution.DAY)
        assert not clause.admits_resolution(
            SpatialResolution.CITY, TemporalResolution.HOUR
        )


class TestRelation:
    def test_planted_relationship_found(self):
        a, b = correlated_series()
        report = relation(
            make_indexed("da", a), make_indexed("db", b), n_permutations=200, seed=0
        )
        assert report.n_evaluated >= 1
        assert report.n_significant >= 1
        result = report.results[0]
        assert result.score > 0.5
        assert result.p_value <= 0.05

    def test_independent_functions_pruned(self):
        a, _ = correlated_series(seed=3)
        b, _ = correlated_series(seed=11)
        report = relation(
            make_indexed("da", a), make_indexed("db", b), n_permutations=99, seed=1
        )
        assert report.n_significant <= report.n_evaluated
        for result in report.results:
            assert result.p_value <= 0.05  # anything surviving must have low p

    def test_same_dataset_rejected(self):
        a, _ = correlated_series()
        idx = make_indexed("same", a)
        with pytest.raises(DataError):
            relation(idx, idx)

    def test_clause_min_score_skips_pairs(self):
        a, b = correlated_series()
        strict = Clause(min_score=0.99)
        report = relation(
            make_indexed("da", a),
            make_indexed("db", b),
            clause=strict,
            n_permutations=99,
            seed=0,
        )
        for result in report.results:
            assert abs(result.score) >= 0.99

    def test_no_overlap_no_evaluation(self):
        a, b = correlated_series()
        r1 = make_indexed("da", a, step_offset=0)
        r2 = make_indexed("db", b, step_offset=10_000)
        report = relation(r1, r2, n_permutations=50)
        assert report.n_evaluated == 0

    def test_partial_overlap_alignment(self):
        a, b = correlated_series()
        r1 = make_indexed("da", a, step_offset=0)
        r2 = make_indexed("db", b[100:], step_offset=100)
        report = relation(r1, r2, n_permutations=150, seed=0)
        assert report.n_evaluated >= 1
        assert report.n_significant >= 1

    def test_custom_thresholds_via_clause(self):
        a, b = correlated_series()
        idx_a = make_indexed("da", a)
        idx_b = make_indexed("db", b)
        clause = Clause(thresholds={"da.v": (14.0, 6.0), "db.v": (8.0, 2.0)})
        report = relation(
            idx_a,
            idx_b,
            clause=clause,
            n_permutations=150,
            seed=0,
            extractor=FeatureExtractor(),
        )
        assert report.n_significant >= 1
        assert report.results[0].score > 0.5


def build_corpus(seed=0, n_hours=1200):
    """Two related data sets + one unrelated, all city/hour."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n_hours, dtype=np.int64) * HOUR
    a, b = correlated_series(seed=seed, n=n_hours)
    noise, _ = correlated_series(seed=seed + 101, n=n_hours)

    def city_dataset(name, values):
        schema = DatasetSchema(
            name,
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
            numeric_attributes=("v",),
        )
        return Dataset(schema, timestamps=ts, numerics={"v": values})

    city = CityModel.synthetic(nbhd_grid=(3, 3), zip_grid=(2, 2))
    datasets = [
        city_dataset("alpha", a),
        city_dataset("beta", b),
        city_dataset("gamma", noise),
    ]
    return Corpus(datasets, city)


class TestCorpus:
    def test_duplicate_names_rejected(self):
        corpus = build_corpus()
        datasets = list(corpus.datasets.values())
        with pytest.raises(DataError):
            Corpus([datasets[0], datasets[0]], corpus.city)

    def test_build_index_materializes_viable_resolutions(self):
        index = build_corpus().build_index()
        alpha = index.dataset_index("alpha")
        keys = set(alpha.functions)
        # City-native hourly data: city spatial only; hour/day/week/month.
        assert (SpatialResolution.CITY, TemporalResolution.HOUR) in keys
        assert (SpatialResolution.CITY, TemporalResolution.DAY) in keys
        assert all(k[0] is SpatialResolution.CITY for k in keys)

    def test_resolution_whitelist(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        keys = set(index.dataset_index("alpha").functions)
        assert keys == {(SpatialResolution.CITY, TemporalResolution.HOUR)}

    def test_index_stats_counters(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        # 3 data sets x 2 functions (density + v) x 1 resolution.
        assert index.stats.n_scalar_functions == 6
        assert index.stats.n_feature_sets == 6
        assert index.stats.function_bytes > 0
        assert index.stats.feature_bytes > 0

    def test_query_finds_planted_pair_and_prunes_noise(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        result = index.query(n_permutations=200, seed=0)
        related = {(r.dataset1, r.dataset2) for r in result.results}
        assert any({"alpha", "beta"} == set(pair) for pair in related)
        assert result.n_significant < result.n_evaluated  # pruning happened

    def test_query_unknown_dataset_rejected(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        with pytest.raises(QueryError):
            index.query(["nope"])

    def test_query_deterministic_given_seed(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        r1 = index.query(n_permutations=99, seed=5)
        r2 = index.query(n_permutations=99, seed=5)
        assert [x.p_value for x in r1.results] == [x.p_value for x in r2.results]

    def test_query_pair_deduplication(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        result = index.query(["alpha", "beta"], ["alpha", "beta"], n_permutations=50)
        # Only the unordered pair (alpha, beta) is evaluated once.
        assert len(result.reports) == 1

    def test_query_result_helpers(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        result = index.query(n_permutations=200, seed=0)
        top = result.top(3)
        assert len(top) <= 3
        if len(top) >= 2:
            assert abs(top[0].score) >= abs(top[1].score)
        with pytest.raises(QueryError):
            result.top(3, by="magic")
        between = result.between("alpha", "beta")
        for r in between:
            assert {r.dataset1, r.dataset2} == {"alpha", "beta"}

    def test_describe_is_readable(self):
        index = build_corpus().build_index(temporal=(TemporalResolution.HOUR,))
        result = index.query(n_permutations=200, seed=0)
        if result.results:
            text = result.results[0].describe()
            assert "tau=" in text and "rho=" in text


HOURLY = (SpatialResolution.CITY, TemporalResolution.HOUR)
DAILY = (SpatialResolution.CITY, TemporalResolution.DAY)


def handmade(name, positive, key=HOURLY, n_steps=12, step_offset=0):
    """A one-function data set whose two channels share one hand-set mask."""
    sf = ScalarFunction.time_series(
        f"{name}.v",
        np.zeros(n_steps),
        key[1],
        step_labels=np.arange(step_offset, step_offset + n_steps),
    )
    mask = np.zeros((n_steps, 1), dtype=bool)
    mask[list(positive)] = True
    fs = FeatureSet(mask, np.zeros_like(mask))
    features = FunctionFeatures(sf.function_id, fs, fs, None, None)
    index = DatasetIndex(dataset=name)
    index.functions[key] = [IndexedFunction(function=sf, features=features)]
    return index


def handmade_corpus(*indexes):
    city = CityModel.synthetic(nbhd_grid=(3, 3), zip_grid=(2, 2))
    return CorpusIndex(city=city, datasets={i.dataset: i for i in indexes})


class TestScoringStage:
    """The driver scores by count table and hands the engine candidates
    only; reports must equal the per-pair reference, field for field."""

    def test_relation_equals_the_per_pair_reference(self):
        a, b = correlated_series()
        r1 = make_indexed("da", a, step_offset=0)
        r2 = make_indexed("db", b[100:], step_offset=100)
        for one, two in ((r1, r2), (r2, r1)):
            expected = reference_relation(one, two, n_permutations=150, seed=4)
            assert expected.n_candidates >= 1
            for mode in ("exact", "batched"):
                got = relation(
                    one, two, n_permutations=150, seed=4, significance_mode=mode
                )
                assert got == expected

    def test_query_equals_the_per_pair_reference_at_every_resolution(self):
        index = build_corpus().build_index()
        result = index.query(n_permutations=60, seed=5)
        assert len(result.reports) == 3 and result.n_candidates >= 10
        for report in result.reports:
            assert report == reference_relation(
                index.datasets[report.dataset1],
                index.datasets[report.dataset2],
                n_permutations=60,
                seed=5,
            )

    def test_no_common_resolution(self):
        hourly = handmade("da", [1, 2], key=HOURLY)
        daily = handmade("db", [1, 2], key=DAILY)
        report = relation(hourly, daily, n_permutations=20)
        assert (report.n_evaluated, report.n_candidates, report.results) == (0, 0, [])
        result = handmade_corpus(hourly, daily).query(n_permutations=20)
        assert [(r.dataset1, r.dataset2) for r in result.reports] == [("da", "db")]
        assert result.n_evaluated == 0

    def test_no_range_overlap_emits_no_task(self):
        early = handmade("da", [1, 2])
        late = handmade("db", [1, 2], step_offset=1000)
        [(report, tasks)] = enumerate_pair_tasks(
            {"da": early, "db": late}, [("da", "db")], {"da"}, Clause(), 0, None
        )
        assert report.n_evaluated == 0 and tasks == []
        result = handmade_corpus(early, late).query(n_permutations=20)
        assert result.n_evaluated == 0
        assert result.job_stats.map_task_seconds == []

    def test_ranges_of_different_eras_in_one_query(self):
        # Two data sets per era, the eras a thousand steps apart: pairs
        # within an era overlap partly, pairs across eras not at all.
        index = handmade_corpus(
            handmade("da", [7, 8, 9]),
            handmade("db", [1, 2, 3], step_offset=6),
            handmade("dc", [7, 8, 9], step_offset=1000),
            handmade("dd", [1, 2, 3], step_offset=1006),
        )
        result = index.query(n_permutations=20, seed=2)
        assert [r.n_evaluated for r in result.reports] == [2, 0, 0, 0, 0, 2]
        assert result.n_candidates == 4
        for report in result.reports:
            assert report == reference_relation(
                index.datasets[report.dataset1],
                index.datasets[report.dataset2],
                n_permutations=20,
                seed=2,
            )

    def test_pair_without_candidates_keeps_its_report_in_order(self):
        # da and db never share a feature point; dc overlaps both.
        index = handmade_corpus(
            handmade("da", [0, 1]), handmade("db", [6, 7]), handmade("dc", [1, 6])
        )
        result = index.query(n_permutations=20, seed=0)
        assert [(r.dataset1, r.dataset2) for r in result.reports] == [
            ("da", "db"),
            ("da", "dc"),
            ("db", "dc"),
        ]
        empty = result.reports[0]
        assert (empty.n_evaluated, empty.n_candidates, empty.results) == (2, 0, [])
        assert [r.n_candidates for r in result.reports[1:]] == [2, 2]
        # The two pairs that have candidates share the one resolution, so
        # their candidates travel in one domain chunk.
        assert len(result.job_stats.map_task_seconds) == 1

    def test_single_dataset_query_is_the_all_pairs_query_restricted(self):
        index = build_corpus().build_index()
        settings = dict(n_permutations=60, seed=5, significance_mode="batched")
        everything = index.query(**settings)
        assert everything.n_significant >= 1
        for x in index.datasets:
            # x's functions are the rows of the table of the pairs x leads
            # and the columns of the table of the pairs that list it second.
            one = index.query([x], **settings)
            assert one.reports == [
                r for r in everything.reports if x in (r.dataset1, r.dataset2)
            ]
            for y in index.datasets:
                assert one.between(x, y) == everything.between(x, y)

    def test_pinned_function_is_extracted_once_per_resolution(self):
        index = build_corpus().build_index()
        n_resolutions = len(index.datasets["alpha"].functions)
        assert n_resolutions == 4
        clause = Clause(thresholds={"alpha.avg.v": (14.0, 6.0)})
        real = FeatureExtractor.extract_with_thresholds
        with mock.patch.object(
            FeatureExtractor, "extract_with_thresholds", autospec=True, side_effect=real
        ) as extract:
            result = index.query(clause=clause, n_permutations=60, seed=5)
        # Not once per (partner function, feature type): alpha.avg.v meets
        # 4 partner functions x 2 channels at each of its 4 resolutions.
        assert extract.call_count == n_resolutions
        assert result.n_candidates >= 10
        for report in result.reports:
            assert report == reference_relation(
                index.datasets[report.dataset1],
                index.datasets[report.dataset2],
                clause=clause,
                n_permutations=60,
                seed=5,
            )
