"""The contracted sweep against the per-vertex reference sweep.

``repro.core.merge_tree`` contracts steepest-ascent basins and runs its
union-find over basins; ``_reference_sweep`` walks every vertex.  Extrema,
pairs, edges and root must agree exactly — the index built on them is
required to be bit-identical.
"""

import itertools
import math

import numpy as np
import pytest
from _reference_sweep import reference_sweep
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge_tree import (
    _contract,
    _sweep,
    compute_join_tree,
    compute_split_tree,
)
from repro.graph.domain_graph import DomainGraph
from repro.utils.errors import TopologyError


def sweep_orders(flat):
    """``(kind, order)`` of both sweeps under the ``(value, id)`` order."""
    ids = np.arange(flat.size)
    return (
        ("join", np.lexsort((-ids, -flat))),
        ("split", np.lexsort((ids, flat))),
    )


def assert_matches_reference(graph, flat):
    for kind, order in sweep_orders(flat):
        expected = reference_sweep(graph, flat, order, kind)
        tree = _sweep(graph, flat, order, kind)
        assert tree.kind == expected.kind
        assert tree.extrema.dtype == expected.extrema.dtype == np.int64
        assert tree.extrema.tolist() == expected.extrema.tolist()
        assert tree.pairs == expected.pairs
        assert tree.edges == expected.edges
        assert tree.root == expected.root


@st.composite
def tie_heavy_functions(draw):
    """A random region graph (0 … all pairs, so often disconnected) over
    1–8 steps, with values drawn from at most five levels."""
    n_regions = draw(st.integers(1, 7))
    n_steps = draw(st.integers(1, 8))
    candidates = list(itertools.combinations(range(n_regions), 2))
    pairs = []
    if candidates:
        pairs = draw(st.lists(st.sampled_from(candidates), unique=True))
    n_levels = draw(st.integers(1, 5))
    n = n_regions * n_steps
    levels = draw(st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n))
    graph = DomainGraph(
        n_regions, n_steps, np.array(pairs, dtype=np.int64).reshape(-1, 2)
    )
    return graph, np.array(levels, dtype=np.float64)


class TestAgainstReferenceSweep:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_functions())
    def test_property_identical_to_per_vertex_sweep(self, case):
        graph, flat = case
        assert_matches_reference(graph, flat)

    def test_degenerate_saddle_on_a_star(self):
        # Four equal peaks around a pit: one saddle merges four components
        # in one step and emits one (head, saddle) edge per component.
        graph = DomainGraph(5, 1, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
        flat = np.array([0.0, 5.0, 5.0, 5.0, 5.0])
        assert_matches_reference(graph, flat)
        tree = compute_join_tree(graph, flat)
        assert tree.extrema.tolist() == [4, 3, 2, 1]
        assert tree.destroyers.tolist() == [-1, 0, 0, 0]
        assert tree.edges == [(4, 0), (3, 0), (2, 0), (1, 0)]

    def test_two_components(self):
        # Regions {0, 1} and {2} never meet.  Both components are essential
        # and both persistences are measured against the sweep's last
        # vertex; each adds a (head, last) edge, in the order the
        # components' own last vertices (1, then 5) are swept.
        graph = DomainGraph(3, 2, np.array([[0, 1]]))
        flat = np.array([4.0, 1.0, 3.0, 2.0, 5.0, 0.0])
        assert_matches_reference(graph, flat)
        tree = compute_join_tree(graph, flat)
        assert tree.root == 5
        assert tree.extrema.tolist() == [4, 0, 2]
        assert tree.destroyers.tolist() == [-1, 3, -1]
        assert tree.edges == [(4, 3), (0, 3), (3, 5), (2, 5)]
        assert tree.persistence.tolist() == [5.0, 2.0, 3.0]

    def test_constant_path_is_one_chain(self):
        # Every vertex's steepest earlier neighbour is its successor: the
        # longest chain pointer jumping can meet.
        n = 32_000
        graph = DomainGraph(1, n)
        flat = np.full(n, 7.0)
        join = compute_join_tree(graph, flat)
        split = compute_split_tree(graph, flat)
        assert (join.extrema.tolist(), join.root) == ([n - 1], 0)
        assert (split.extrema.tolist(), split.root) == ([0], n - 1)
        assert (join.edges, split.edges) == ([(n - 1, 0)], [(0, n - 1)])
        assert join.persistence.tolist() == split.persistence.tolist() == [0.0]
        descending = np.arange(n)[::-1]
        chain = graph.neighbor_min(descending.copy())[descending]
        assert np.array_equal(chain, np.maximum(np.arange(n) - 1, 0))
        assert not _contract(chain).any()
        rounds = 1  # the round that finds nothing left to do
        while chain.any():
            chain, rounds = chain[chain], rounds + 1
        assert rounds <= math.ceil(math.log2(n)) + 1

    def test_single_vertex(self):
        graph = DomainGraph(1, 1)
        assert_matches_reference(graph, np.array([2.5]))
        tree = compute_split_tree(graph, np.array([2.5]))
        assert (tree.extrema.tolist(), tree.root, tree.edges) == ([0], 0, [])
        assert tree.pairs[0].destroyer == -1

    def test_empty_and_mis_sized_order_rejected(self):
        graph = DomainGraph(1, 3)
        with pytest.raises(TopologyError, match="empty"):
            compute_split_tree(graph, np.zeros(0))
        with pytest.raises(TopologyError, match="order length"):
            compute_join_tree(graph, np.zeros(3), np.arange(2))
