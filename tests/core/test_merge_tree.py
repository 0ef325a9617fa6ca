"""Tests for merge-tree construction and persistence pairing (§3.1, App. B.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge_tree import compute_join_tree, compute_split_tree
from repro.core.scalar_function import ScalarFunction
from repro.graph.domain_graph import DomainGraph
from repro.spatial.adjacency import grid_adjacency
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution
from repro.utils.errors import TopologyError


def series(values):
    return ScalarFunction.time_series("t.f", np.asarray(values, dtype=float))


def local_maxima_1d(values):
    """Brute-force maxima under the (value, id) perturbation order."""
    out = []
    n = len(values)
    for i in range(n):
        higher = False
        for j in ([i - 1] if i > 0 else []) + ([i + 1] if i + 1 < n else []):
            if (values[j], j) > (values[i], i):
                higher = True
        if not higher:
            out.append(i)
    return sorted(out)


class TestPaperExample:
    """The running example of Fig. 2 / Fig. 4."""

    VALUES = [3.0, 6.0, 2.0, 5.0, 1.5, 4.0, 0.0, 7.0, 1.0]

    def test_join_tree_maxima(self):
        sf = series(self.VALUES)
        tree = compute_join_tree(sf.graph, sf.flat_values())
        assert sorted(tree.extrema.tolist()) == [1, 3, 5, 7]
        # Extrema are reported in sweep order: most extreme first.
        assert tree.extrema.tolist() == [7, 1, 3, 5]

    def test_join_tree_persistence_follows_elder_rule(self):
        sf = series(self.VALUES)
        tree = compute_join_tree(sf.graph, sf.flat_values())
        by_creator = {p.creator: p for p in tree.pairs}
        # Global max (v=7, f=7): essential pair spanning the full range.
        assert by_creator[7].persistence == pytest.approx(7.0)
        assert by_creator[7].destroyer == -1
        # Max at v=1 (f=6) dies at the deepest separating saddle v=6 (f=0).
        assert by_creator[1].destroyer == 6
        assert by_creator[1].persistence == pytest.approx(6.0)
        # Max at v=3 (f=5) dies at v=2 (f=2).
        assert by_creator[3].destroyer == 2
        assert by_creator[3].persistence == pytest.approx(3.0)
        # Max at v=5 (f=4) dies at v=4 (f=1.5).
        assert by_creator[5].destroyer == 4
        assert by_creator[5].persistence == pytest.approx(2.5)

    def test_split_tree_minima(self):
        sf = series(self.VALUES)
        tree = compute_split_tree(sf.graph, sf.flat_values())
        assert sorted(tree.extrema.tolist()) == [0, 2, 4, 6, 8]

    def test_root_is_global_extremum_of_opposite_kind(self):
        sf = series(self.VALUES)
        join = compute_join_tree(sf.graph, sf.flat_values())
        split = compute_split_tree(sf.graph, sf.flat_values())
        assert join.root == 6  # global minimum
        assert split.root == 7  # global maximum

    def test_persistence_of_vertex_lookup(self):
        sf = series(self.VALUES)
        tree = compute_join_tree(sf.graph, sf.flat_values())
        assert tree.persistence_of(3) == pytest.approx(3.0)
        with pytest.raises(TopologyError):
            tree.persistence_of(0)


class TestEdgeCases:
    def test_constant_function_has_one_extremum(self):
        sf = series([5.0] * 8)
        join = compute_join_tree(sf.graph, sf.flat_values())
        split = compute_split_tree(sf.graph, sf.flat_values())
        # Simulated perturbation makes exactly one maximum and one minimum.
        assert join.n_extrema == 1
        assert split.n_extrema == 1
        assert join.pairs[0].persistence == pytest.approx(0.0)

    def test_monotone_function(self):
        sf = series([1.0, 2.0, 3.0, 4.0])
        join = compute_join_tree(sf.graph, sf.flat_values())
        assert join.extrema.tolist() == [3]
        assert join.pairs[0].persistence == pytest.approx(3.0)

    def test_ties_resolved_deterministically(self):
        sf = series([1.0, 2.0, 1.0, 2.0, 1.0])
        join = compute_join_tree(sf.graph, sf.flat_values())
        # Two plateaus at 2.0: both are maxima under perturbation.
        assert sorted(join.extrema.tolist()) == [1, 3]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=60))
    def test_property_join_extrema_are_local_maxima(self, values):
        sf = series(values)
        tree = compute_join_tree(sf.graph, sf.flat_values())
        assert sorted(tree.extrema.tolist()) == local_maxima_1d(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=60))
    def test_property_persistence_nonnegative_and_bounded(self, values):
        sf = series(values)
        tree = compute_join_tree(sf.graph, sf.flat_values())
        rng_span = max(values) - min(values)
        for pers in tree.persistence:
            assert -1e-9 <= pers <= rng_span + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=40))
    def test_property_split_tree_mirrors_negated_join_tree(self, values):
        sf = series(values)
        split = compute_split_tree(sf.graph, sf.flat_values())
        # Minima of f are maxima of -f; persistences match.  (Tie-break order
        # differs between the two sweeps, so compare only when values are
        # distinct.)
        if len(set(values)) != len(values):
            return
        neg = series([-v for v in values])
        join_of_neg = compute_join_tree(neg.graph, neg.flat_values())
        assert sorted(split.extrema.tolist()) == sorted(join_of_neg.extrema.tolist())
        a = sorted(split.persistence.tolist())
        b = sorted(join_of_neg.persistence.tolist())
        assert np.allclose(a, b)


class TestGridDomains:
    def test_number_of_components_at_threshold_matches_tree(self):
        # A 2-regions x many-steps function with two clear peaks.
        pairs = grid_adjacency(2, 1)
        graph = DomainGraph(2, 30, pairs)
        rng = np.random.default_rng(5)
        values = rng.normal(0, 0.1, (30, 2))
        values[5, 0] += 5.0
        values[20, 1] += 4.0
        sf = ScalarFunction(
            "g.f",
            values,
            graph,
            spatial=SpatialResolution.NEIGHBORHOOD,
            temporal=TemporalResolution.HOUR,
        )
        tree = compute_join_tree(sf.graph, sf.flat_values())
        top = sorted(tree.persistence)[-2:]
        assert top[0] > 3.0  # both planted peaks are high-persistence
