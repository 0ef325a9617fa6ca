"""Tests for relationship score τ and strength ρ (§2.2, §2.3)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import relationship
from repro.core.features import FeatureSet
from repro.core.operator import _overlap_slices
from repro.core.relationship import (
    count_table,
    evaluate_features,
    measures_from_counts,
    score_from_masks,
)
from repro.utils.errors import DataError


def fs(pos_idx, neg_idx, shape=(10, 1)):
    pos = np.zeros(shape, dtype=bool)
    neg = np.zeros(shape, dtype=bool)
    for i in pos_idx:
        pos[i] = True
    for i in neg_idx:
        neg[i] = True
    return FeatureSet(pos, neg)


class TestScore:
    def test_perfect_positive(self):
        a = fs([0, 1], [5])
        b = fs([0, 1], [5])
        m = evaluate_features(a, b)
        assert m.score == pytest.approx(1.0)
        assert m.strength == pytest.approx(1.0)
        assert m.n_related == 3

    def test_perfect_negative(self):
        a = fs([0, 1], [5])
        b = fs([5], [0, 1])
        m = evaluate_features(a, b)
        assert m.score == pytest.approx(-1.0)
        assert m.strength == pytest.approx(1.0)

    def test_mixed(self):
        # 2 positive relations, 1 negative -> tau = 1/3.
        a = fs([0, 1], [5])
        b = fs([0, 1, 5], [])
        m = evaluate_features(a, b)
        assert m.n_positive == 2
        assert m.n_negative == 1
        assert m.score == pytest.approx(1.0 / 3.0)

    def test_unrelated_score_zero(self):
        a = fs([0], [])
        b = fs([9], [])
        m = evaluate_features(a, b)
        assert m.n_related == 0
        assert m.score == 0.0
        assert not m.is_related

    def test_no_features_at_all(self):
        a = fs([], [])
        b = fs([], [])
        m = evaluate_features(a, b)
        assert m.score == 0.0
        assert m.strength == 0.0

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(DataError):
            evaluate_features(fs([], [], (5, 1)), fs([], [], (6, 1)))


class TestStrength:
    def test_f1_uses_both_sides(self):
        # |Sigma1|=4, |Sigma2|=2, overlap 2 -> P=0.5, R=1.0, F1=2/3.
        a = fs([0, 1, 2, 3], [])
        b = fs([0, 1], [])
        m = evaluate_features(a, b)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(1.0)
        assert m.strength == pytest.approx(2 / 3)

    def test_strength_symmetric(self):
        a = fs([0, 1, 2, 3], [8])
        b = fs([0, 1], [8, 9])
        ab = evaluate_features(a, b)
        ba = evaluate_features(b, a)
        assert ab.strength == pytest.approx(ba.strength)
        assert ab.score == pytest.approx(ba.score)


class TestDegenerateOverlap:
    def test_point_in_both_channels_of_one_function(self):
        # Degenerate thresholds can make the same point positive AND
        # negative; tau must stay within [-1, 1] (Definitions 10/11 are
        # per-point disjunctions).
        a = fs([0], [0])
        b = fs([0], [0])
        m = evaluate_features(a, b)
        assert -1.0 <= m.score <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_bounds_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 20), rng.integers(1, 6))
    def random_fs():
        pos = rng.uniform(size=shape) < 0.3
        neg = (rng.uniform(size=shape) < 0.3) & ~pos
        return FeatureSet(pos, neg)
    a, b = random_fs(), random_fs()
    ab = evaluate_features(a, b)
    ba = evaluate_features(b, a)
    assert -1.0 <= ab.score <= 1.0
    assert 0.0 <= ab.strength <= 1.0
    assert ab.score == pytest.approx(ba.score)
    assert ab.strength == pytest.approx(ba.strength)
    assert ab.n_related <= min(ab.n_features_1, ab.n_features_2)
    assert ab.n_positive + ab.n_negative >= ab.n_related or True  # disjoint masks
    assert ab.n_positive <= ab.n_related
    assert ab.n_negative <= ab.n_related


def test_score_from_masks_matches_evaluate_features():
    rng = np.random.default_rng(0)
    pos1 = rng.uniform(size=(8, 3)) < 0.4
    neg1 = (rng.uniform(size=(8, 3)) < 0.4) & ~pos1
    pos2 = rng.uniform(size=(8, 3)) < 0.4
    neg2 = (rng.uniform(size=(8, 3)) < 0.4) & ~pos2
    direct = score_from_masks(pos1, neg1, pos2, neg2)
    wrapped = evaluate_features(FeatureSet(pos1, neg1), FeatureSet(pos2, neg2))
    assert direct == wrapped


# -- count_table: the query path's all-pairs scoring ------------------------


@st.composite
def table_sides(draw):
    """``(rows, cols)`` of ``(first step label, FeatureSet)``: 1-6 functions
    per side over 1-5 shared regions (1 = the time-series case); step ranges
    of 1-8 steps starting at 0-12, so pairs overlap fully, partly or not at
    all; masks may be empty, and positive and negative masks are drawn
    independently, so a point is often both (B != empty)."""
    n_regions = draw(st.integers(1, 5))

    def function():
        shape = (draw(st.integers(1, 8)), n_regions)
        if draw(st.booleans()) and draw(st.booleans()):
            return draw(st.integers(0, 12)), FeatureSet.empty(*shape)
        masks = hnp.arrays(np.bool_, shape)
        return draw(st.integers(0, 12)), FeatureSet(draw(masks), draw(masks))

    def side():
        return [function() for _ in range(draw(st.integers(1, 6)))]

    return side(), side()


@pytest.mark.parametrize(
    "constants",
    [{"_FLOAT32_EXACT": 2**24}, {"_FLOAT32_EXACT": 0}, {"_BLOCK_ENTRIES": 1}],
    ids=["float32", "float64", "one-step blocks"],
)
@settings(max_examples=150, deadline=None)
@given(sides=table_sides())
def test_count_table_equals_score_from_masks_on_every_overlap(constants, sides):
    rows, cols = sides
    with mock.patch.multiple(relationship, **constants):
        table = count_table(rows, cols)
    assert table.shape == (6, len(rows), len(cols)) and table.dtype == np.int64
    for i, (start1, fs1) in enumerate(rows):
        for j, (start2, fs2) in enumerate(cols):
            slices = _overlap_slices(
                np.arange(start1, start1 + fs1.shape[0]),
                np.arange(start2, start2 + fs2.shape[0]),
            )
            if slices is None:  # not evaluated at all
                assert table[:, i, j].tolist() == [0] * 6
                continue
            s1, s2 = slices
            expected = score_from_masks(
                fs1.positive[s1], fs1.negative[s1], fs2.positive[s2], fs2.negative[s2]
            )
            # All nine measures, exactly: same integers, same float expressions.
            assert measures_from_counts(*table[:5, i, j].tolist()) == expected
            assert table[5, i, j] == s1.stop - s1.start


def test_count_table_accumulation_dtype_follows_the_exactness_bound():
    big = FeatureSet(np.ones((2, 3), bool), np.zeros((2, 3), bool))
    with mock.patch.object(
        relationship, "_indicators", wraps=relationship._indicators
    ) as stacked:
        count_table([(0, big)], [(0, big)])  # 2 steps x 3 regions = 6 points
        with mock.patch.object(relationship, "_FLOAT32_EXACT", 6):
            count_table([(0, big)], [(0, big)])
    dtypes = [call.args[3] for call in stacked.call_args_list]
    assert dtypes == [np.float32, np.float32, np.float64, np.float64]


def test_count_table_cost_follows_the_overlaps_not_the_hull():
    # Month-long hourly functions over 195 regions.  Ten years between two
    # data sets must cost nothing, and one data set of another decade must
    # not inflate an all-pairs table: the stack is bounded by
    # ``_BLOCK_ENTRIES`` (13 bytes each), whatever the ranges.
    rng = np.random.default_rng(5)

    def dataset(start, n_functions):
        masks = rng.random((n_functions, 2, 720, 195)) < 0.05
        return [(start, FeatureSet(pos, neg)) for pos, neg in masks]

    def traced(rows, cols):
        tracemalloc.start()
        try:
            table = count_table(rows, cols)
            return table, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    decade = 87_600
    near, far = dataset(0, 8), dataset(decade, 8)
    table, peak = traced(near, far)
    assert not table.any() and peak < 2**20

    shifted = [(360, features) for _, features in far]
    table, peak = traced(near, shifted)
    assert (table[5] == 360).all() and peak < 48 * 2**20
    expected = score_from_masks(
        near[0][1].positive[360:],
        near[0][1].negative[360:],
        shifted[3][1].positive[:360],
        shifted[3][1].negative[:360],
    )
    assert measures_from_counts(*table[:5, 0, 3].tolist()) == expected

    corpus = dataset(0, 24) + far
    table, peak = traced(corpus, corpus)
    assert peak < 48 * 2**20
    assert np.count_nonzero(table[5]) == 24 * 24 + 8 * 8
    assert (table[0].diagonal() == table[3].diagonal()).all()


def test_count_table_degenerate_points_count_once():
    # One point that is positive AND negative in both functions: it is one
    # positively and one negatively related point, not two of each.
    a = fs([0], [0])
    table = count_table([(0, a)], [(0, a)])
    assert table[:5, 0, 0].tolist() == [1, 1, 1, 1, 1]
    assert measures_from_counts(*table[:5, 0, 0].tolist()) == evaluate_features(a, a)


def test_count_table_region_mismatch_is_a_data_error():
    with pytest.raises(DataError):
        count_table([(0, fs([], [], (5, 1)))], [(0, fs([], [], (5, 2)))])


def test_count_table_without_rows_or_columns_is_empty():
    assert count_table([], [(0, fs([0], []))]).shape == (6, 0, 1)
    assert count_table([(0, fs([0], []))], []).shape == (6, 1, 0)
