"""Tests for the spatio-temporal domain graph of §3.1."""

import pickle

import numpy as np
import pytest

from repro.graph.domain_graph import DomainGraph
from repro.spatial.adjacency import grid_adjacency
from repro.utils.errors import DataError


class TestShape:
    def test_vertex_and_edge_counts_time_series(self):
        g = DomainGraph(1, 10)
        assert g.n_vertices == 10
        assert g.n_edges == 9  # a path
        assert g.is_time_series

    def test_vertex_and_edge_counts_grid(self):
        pairs = grid_adjacency(3, 3)  # 12 spatial pairs
        g = DomainGraph(9, 4, pairs)
        assert g.n_vertices == 36
        assert g.n_edges == 12 * 4 + 9 * 3
        assert not g.is_time_series

    def test_invalid_shapes_rejected(self):
        with pytest.raises(DataError):
            DomainGraph(0, 5)
        with pytest.raises(DataError):
            DomainGraph(2, 2, np.array([[0, 5]]))
        with pytest.raises(DataError):
            DomainGraph(1, 3, step_labels=np.arange(2))


class TestIndexing:
    def test_vertex_round_trip(self):
        g = DomainGraph(4, 5, grid_adjacency(2, 2))
        for region in range(4):
            for step in range(5):
                v = g.vertex(region, step)
                assert g.region_of(v) == region
                assert g.step_of(v) == step

    def test_vertex_out_of_range(self):
        g = DomainGraph(2, 2)
        with pytest.raises(DataError):
            g.vertex(2, 0)


class TestNeighbors:
    def test_time_series_neighbors(self):
        g = DomainGraph(1, 5)
        assert sorted(g.neighbors(0).tolist()) == [1]
        assert sorted(g.neighbors(2).tolist()) == [1, 3]
        assert sorted(g.neighbors(4).tolist()) == [3]

    def test_grid_neighbors_include_spatial_and_temporal(self):
        pairs = grid_adjacency(2, 2)
        g = DomainGraph(4, 3, pairs)
        # Vertex (region 0, step 1): spatial neighbors 1, 2; temporal +-4.
        v = g.vertex(0, 1)
        expected = {g.vertex(1, 1), g.vertex(2, 1), g.vertex(0, 0), g.vertex(0, 2)}
        assert set(g.neighbors(v).tolist()) == expected

    def test_neighbors_symmetric(self):
        pairs = grid_adjacency(3, 2)
        g = DomainGraph(6, 4, pairs)
        for v in range(g.n_vertices):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_edge_list_matches_neighbor_counts(self):
        pairs = grid_adjacency(2, 3)
        g = DomainGraph(6, 3, pairs)
        edges = list(zip(*(endpoints.tolist() for endpoints in g.edge_list)))
        assert len(edges) == g.n_edges
        assert len(set(edges)) == len(edges)  # no duplicates
        degree = np.zeros(g.n_vertices, dtype=int)
        for u, v in edges:
            assert u < v
            degree[u] += 1
            degree[v] += 1
        for v in range(g.n_vertices):
            assert degree[v] == g.neighbors(v).size

    def test_neighbor_lists_materialization(self):
        g = DomainGraph(2, 3, np.array([[0, 1]]))
        lists = g.neighbor_lists()
        for v in range(g.n_vertices):
            assert np.array_equal(np.sort(lists[v]), np.sort(g.neighbors(v)))


class TestStepSlices:
    def test_slices_share_the_lazily_built_region_structures(self):
        g = DomainGraph(4, 6, grid_adjacency(2, 2), step_labels=np.arange(10, 16))
        early, late = g.slice_steps(np.arange(0, 3)), g.slice_steps(slice(3, 6))
        assert (early.n_steps, late.n_steps) == (3, 3)
        assert late.step_labels.tolist() == [13, 14, 15]
        # Built on first use by any of them, then the same objects for all.
        assert early.region_neighbors(0) is g.region_neighbors(0)
        assert early.region_neighbors(0) is late.region_neighbors(0)
        assert sorted(late.neighbors(late.vertex(0, 1)).tolist()) == [0, 5, 6, 8]
        with pytest.raises(DataError, match="zero time steps"):
            g.slice_steps(slice(3, 3))

    def test_cached_edge_list_stays_out_of_slices_and_pickles(self):
        g = DomainGraph(4, 6, grid_adjacency(2, 2))
        u, _ = g.edge_list
        assert g.edge_list[0] is u  # cached: both sweeps read the same arrays
        assert "edge_list" not in pickle.loads(pickle.dumps(g)).__dict__
        sliced = g.slice_steps(slice(0, 2))
        assert sliced.edge_list[0].size == sliced.n_edges == 4 * 2 + 4
        assert g.edge_list[0] is u

    def test_neighbor_min_is_the_closed_neighbourhood_minimum(self):
        # Region 3 has no spatial neighbour; step 0 and 2 have one temporal.
        g = DomainGraph(4, 3, np.array([[0, 1], [1, 2]]))
        rank = np.random.default_rng(0).permutation(g.n_vertices)
        expected = [min(rank[v], *rank[g.neighbors(v)]) for v in range(g.n_vertices)]
        assert g.neighbor_min(rank).tolist() == expected
