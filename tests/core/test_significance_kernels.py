"""The signed, per-function batch kernels against their count-by-count oracles.

Three properties (oracles in ``_reference_significance.py``):

* a pair's result depends on the pair alone — ``significance_batch`` is
  invariant under any permutation and any split of the request list;
* the two-product kernels equal the five-count ones, bit for bit, on every
  arithmetic path: float32 and float64, whole-group and one-row slabs,
  degenerate points (positive *and* negative), empty masks;
* the list-based ``toroidal_map`` draws the same map from the same
  generator as the array-based walk, on any graph.

Plus the family cache: one family per region graph, whatever the count.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from _reference_significance import reference_batch, reference_toroidal_map
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import significance
from repro.core.features import FeatureSet
from repro.core.significance import (
    SignificanceRequest,
    domain_toroidal_maps,
    significance_batch,
    toroidal_map,
)
from repro.graph.domain_graph import DomainGraph
from repro.spatial.adjacency import grid_adjacency, neighbors_from_pairs
from repro.utils.errors import DataError

ALTERNATIVES = ("two-sided", "greater", "less")
MODES = ("batched", "adaptive")


def feature_pool(seed, n_steps, n_regions, n_functions, density=0.15, degenerate=0.0):
    """``n_functions`` random feature sets; ``degenerate`` is the share of
    points that are a positive and a negative feature at once."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(n_functions):
        positive = rng.uniform(size=(n_steps, n_regions)) < density
        negative = (rng.uniform(size=(n_steps, n_regions)) < density) & ~positive
        both = rng.uniform(size=(n_steps, n_regions)) < degenerate
        pool.append(FeatureSet(positive | both, negative | both))
    return pool


def mixed_requests(seed, n_requests=14):
    """Requests over three domains — a 4x4 grid, a 3x3 grid, a time series —
    whose functions meet several partners each (so they are shared)."""
    rng = np.random.default_rng(seed)
    domains = [
        (feature_pool(seed, 30, 16, 4), DomainGraph(16, 30, grid_adjacency(4, 4))),
        (feature_pool(seed + 1, 30, 9, 3), DomainGraph(9, 30, grid_adjacency(3, 3))),
        (feature_pool(seed + 2, 80, 1, 4, density=0.2), DomainGraph(1, 80, None)),
    ]
    requests = []
    for k in range(n_requests):
        pool, graph = domains[int(rng.integers(len(domains)))]
        i, j = rng.choice(len(pool), size=2, replace=False)
        requests.append(SignificanceRequest(pool[i], pool[j], graph, seed=1000 + k))
    return requests


class TestBatchInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        order=st.permutations(range(14)),
        cuts=st.lists(st.integers(0, 14), max_size=4),
        alternative=st.sampled_from(ALTERNATIVES),
        mode=st.sampled_from(MODES),
    )
    def test_any_order_and_any_split_give_the_same_results(
        self, seed, order, cuts, alternative, mode
    ):
        requests = mixed_requests(seed)
        whole = significance_batch(requests, 120, alternative, mode)
        bounds = [0, *sorted(cuts), len(order)]
        for lo, hi in zip(bounds, bounds[1:]):
            part = [requests[i] for i in order[lo:hi]]
            got = significance_batch(part, 120, alternative, mode)
            assert got == [whole[i] for i in order[lo:hi]]


def oracle_cases():
    """Request lists that stress the arithmetic, with their names."""
    grid = DomainGraph(16, 24, grid_adjacency(4, 4))
    series = DomainGraph(1, 60, None)

    def all_pairs(pool, graph):
        return [
            SignificanceRequest(a, b, graph, seed=7 * i + j)
            for i, a in enumerate(pool)
            for j, b in enumerate(pool)
            if i != j
        ]

    empty_grid = FeatureSet.empty(24, 16)
    empty_series = FeatureSet.empty(60, 1)
    return {
        "random": all_pairs(feature_pool(0, 24, 16, 4), grid)
        + all_pairs(feature_pool(1, 60, 1, 4, density=0.25), series),
        "degenerate-points": all_pairs(feature_pool(2, 24, 16, 3, degenerate=0.2), grid)
        + all_pairs(feature_pool(3, 60, 1, 3, degenerate=0.2), series),
        "empty-masks": all_pairs([*feature_pool(4, 24, 16, 2), empty_grid], grid)
        + all_pairs([*feature_pool(5, 60, 1, 2), empty_series], series),
        "planted": [
            SignificanceRequest(fs, fs, grid, seed=k)
            for k, fs in enumerate(feature_pool(6, 24, 16, 2))
        ],
        "sampled-rotations": all_pairs(
            feature_pool(7, 200, 1, 3), DomainGraph(1, 200, None)
        ),
    }


#: Arithmetic paths: the float32 default, float64 forced, and both slab
#: loops forced down to one pair / one permutation row per slab.
PATHS = {
    "float32": {"_FLOAT32_EXACT": 2**24},
    "float64": {"_FLOAT32_EXACT": 0},
    "one-row-slabs": {"_SLAB_ELEMENTS": 1},
    "float64-one-row-slabs": {"_FLOAT32_EXACT": 0, "_SLAB_ELEMENTS": 1},
}


class TestSignedKernelsEqualTheOracle:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("case", oracle_cases())
    def test_bit_identical(self, case, path):
        requests = oracle_cases()[case]
        for mode in MODES:
            for alternative in ALTERNATIVES:
                expected = reference_batch(requests, 90, alternative, mode)
                with mock.patch.multiple(significance, **PATHS[path]):
                    got = significance_batch(requests, 90, alternative, mode)
                assert got == expected

    def test_the_float64_path_is_taken_beyond_the_bound(self):
        requests = oracle_cases()["random"][:3]
        seen = []
        real = significance._cooccurrence_table

        def spy(reqs, dtype):
            seen.append(dtype)
            return real(reqs, dtype)

        with mock.patch.object(significance, "_cooccurrence_table", spy):
            significance_batch(requests, 40)
            with mock.patch.object(significance, "_FLOAT32_EXACT", 24 * 16):
                significance_batch(requests, 40)
        assert seen == [np.float32, np.float64]

    def test_handed_over_family_is_the_one_used(self):
        requests = oracle_cases()["random"][:4]
        graph = requests[0].graph
        family = domain_toroidal_maps(graph, 60)
        carried = [
            SignificanceRequest(r.fs1, r.fs2, graph, seed=r.seed, maps=family)
            for r in requests
        ]
        with mock.patch.object(
            significance, "domain_toroidal_maps", side_effect=AssertionError
        ):
            got = significance_batch(carried, 60)
        assert got == significance_batch(requests, 60)
        # A longer family is a prefix-compatible one; a shorter one is refused.
        assert significance_batch(carried, 40) == significance_batch(requests, 40)
        with pytest.raises(DataError):
            significance_batch(carried, 61)


@st.composite
def random_graphs(draw):
    """Region adjacency lists of a random graph: connected or not, possibly
    a single vertex, possibly without any edge."""
    n = draw(st.integers(1, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return neighbors_from_pairs(n, pairs)


class TestToroidalMapEqualsTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(neighbors=random_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_same_map_from_the_same_generator(self, neighbors, seed):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive maps of one family
            new = toroidal_map([ns.tolist() for ns in neighbors], new_rng)
            old = reference_toroidal_map(neighbors, old_rng)
            assert new.dtype == old.dtype and np.array_equal(new, old)
        # The same draws were made, so the family's next map agrees too.
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_arrays_of_neighbours_are_accepted(self):
        neighbors = neighbors_from_pairs(9, grid_adjacency(3, 3))
        as_lists = toroidal_map(
            [ns.tolist() for ns in neighbors], np.random.default_rng(4)
        )
        as_arrays = toroidal_map(neighbors, np.random.default_rng(4))
        assert np.array_equal(as_lists, as_arrays)


@pytest.fixture
def fresh_family_cache():
    with mock.patch.dict(significance._TOROIDAL_CACHE, clear=True):
        yield


@pytest.mark.usefixtures("fresh_family_cache")
class TestFamilyCache:
    graph = DomainGraph(36, 5, grid_adjacency(6, 6))

    @pytest.mark.parametrize("counts", [(100, 1000), (1000, 100)])
    def test_a_smaller_family_is_a_prefix_in_either_call_order(self, counts):
        families = {n: domain_toroidal_maps(self.graph, n) for n in counts}
        assert families[100].shape == (100, 36)
        assert np.array_equal(families[100], families[1000][:100])
        assert len(significance._TOROIDAL_CACHE) == 1

    def test_growing_builds_only_the_missing_maps(self):
        with mock.patch.object(
            significance, "toroidal_map", side_effect=toroidal_map
        ) as build:
            small = domain_toroidal_maps(self.graph, 100).copy()
            assert build.call_count == 100
            large = domain_toroidal_maps(self.graph, 1000)
            assert build.call_count == 1000  # 900 more, not 1,000
            domain_toroidal_maps(self.graph, 500)
            assert build.call_count == 1000
        assert np.array_equal(large[:100], small)

    def test_concurrent_requests_share_one_family(self):
        counts = [10, 80, 25, 60, 40, 5, 70, 33]  # more threads than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with (
                mock.patch.object(
                    significance, "toroidal_map", side_effect=toroidal_map
                ) as build,
                ThreadPoolExecutor(max_workers=len(counts)) as pool,
            ):
                futures = [
                    pool.submit(domain_toroidal_maps, self.graph, n) for n in counts
                ]
                families = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # A lost update would build a map twice or hand out diverging maps.
        assert build.call_count == max(counts)
        longest = max(families, key=len)
        for n, family in zip(counts, families):
            assert np.array_equal(family, longest[:n])

    def test_the_cached_count_returns_one_read_only_object(self):
        first = domain_toroidal_maps(self.graph, 50)
        assert domain_toroidal_maps(self.graph, 50) is first
        assert not first.flags.writeable

    def test_keyed_by_graph_content_not_by_graph_object(self):
        twin = DomainGraph(36, 99, grid_adjacency(6, 6))
        other = DomainGraph(36, 5, grid_adjacency(6, 6)[:-1])
        first = domain_toroidal_maps(self.graph, 20)
        assert domain_toroidal_maps(twin, 20) is first
        assert not np.array_equal(domain_toroidal_maps(other, 20), first)
