"""The spatio-temporal domain graph ``G = (V, E_S ∪ E_T)`` of §3.1.

Vertex ``v_{x,z}`` represents spatial region ``s_x`` at time step ``t_z``;
``|V| = n * m``.  Spatial edges connect adjacent regions within each time
step; temporal edges connect the same region across consecutive time steps.
A piecewise-linear scalar function is defined on the vertices of this graph
(values live in an ``(m, n)`` matrix) and interpolated along edges.

Vertices are numbered time-major: ``index(x, z) = z * n + x``.  For the city
resolution (``n = 1``) the graph degenerates to a path — a plain time series —
exactly matching the paper's 1-D case.
"""

from __future__ import annotations

import copy
from functools import cached_property

import numpy as np

from ..utils.errors import DataError
from ..spatial.adjacency import neighbors_from_pairs


class _RegionAdjacency:
    """Region-level adjacency structures of one ``spatial_pairs`` array.

    Built on first use and shared by every step-slice of a graph
    (:meth:`DomainGraph.slice_steps`): they depend on the regions only,
    never on the time axis.
    """

    def __init__(self, n_regions: int, pairs: np.ndarray) -> None:
        self.n_regions = n_regions
        self.pairs = pairs

    @cached_property
    def region_lists(self) -> list[np.ndarray]:
        """One sorted neighbour array per region."""
        return neighbors_from_pairs(self.n_regions, self.pairs)

    @cached_property
    def closed_neighborhoods(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, members)``: region ``r`` and its neighbours are
        ``members[starts[r]:starts[r + 1]]`` — the directed pairs plus one
        self-loop per region, stably sorted by source.  Every region owns a
        non-empty segment, which is the layout ``ufunc.reduceat`` needs."""
        loops = np.arange(self.n_regions, dtype=np.int64)
        src = np.concatenate([loops, self.pairs[:, 0], self.pairs[:, 1]])
        dst = np.concatenate([loops, self.pairs[:, 1], self.pairs[:, 0]])
        by_src = np.argsort(src, kind="stable")
        starts = np.searchsorted(src[by_src], loops)
        return starts, dst[by_src]


class DomainGraph:
    """Graph representation of a spatio-temporal domain.

    Parameters
    ----------
    n_regions:
        Number of spatial regions ``n`` (>= 1).
    n_steps:
        Number of time steps ``m`` (>= 1).
    spatial_pairs:
        ``(k, 2)`` array of adjacent region-index pairs (undirected).  Empty
        for the city resolution.
    step_labels:
        Optional ``(m,)`` array of the temporal bucket indices behind each
        step (used for seasonal-interval threshold computation).  Defaults to
        ``arange(m)``.
    """

    def __init__(
        self,
        n_regions: int,
        n_steps: int,
        spatial_pairs: np.ndarray | None = None,
        step_labels: np.ndarray | None = None,
    ) -> None:
        if n_regions < 1 or n_steps < 1:
            raise DataError("domain graph needs n_regions >= 1 and n_steps >= 1")
        self.n_regions = int(n_regions)
        self.n_steps = int(n_steps)
        if spatial_pairs is None:
            spatial_pairs = np.zeros((0, 2), dtype=np.int64)
        pairs = np.asarray(spatial_pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n_regions):
            raise DataError("spatial adjacency pair out of range")
        self.spatial_pairs = pairs
        if step_labels is None:
            step_labels = np.arange(n_steps, dtype=np.int64)
        labels = np.asarray(step_labels, dtype=np.int64)
        if labels.shape != (n_steps,):
            raise DataError("step_labels must have one entry per time step")
        self.step_labels = labels
        self._adjacency = _RegionAdjacency(self.n_regions, pairs)

    def slice_steps(self, positions: np.ndarray | slice) -> "DomainGraph":
        """The same regions and adjacency over a subset of the time steps.

        The slice shares this graph's lazily built region-level structures,
        so slicing a function into seasonal intervals builds them at most
        once.
        """
        sliced = copy.copy(self)  # via __getstate__: without the edge list
        sliced.step_labels = self.step_labels[positions]
        sliced.n_steps = sliced.step_labels.size
        if sliced.n_steps < 1:
            raise DataError("cannot slice a domain graph to zero time steps")
        return sliced

    def __getstate__(self) -> dict:
        """Copies and pickles leave the cached :attr:`edge_list` behind: it
        is 2|E| integers any holder rebuilds in one vectorised pass."""
        state = self.__dict__.copy()
        state.pop("edge_list", None)
        return state

    # -- vertex indexing -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """``|V| = n_regions * n_steps``."""
        return self.n_regions * self.n_steps

    @property
    def n_edges(self) -> int:
        """``|E_S| + |E_T|`` (undirected edge count)."""
        spatial = self.spatial_pairs.shape[0] * self.n_steps
        temporal = self.n_regions * (self.n_steps - 1)
        return spatial + temporal

    def vertex(self, region: int, step: int) -> int:
        """Vertex index of region ``region`` at time step ``step``."""
        if not (0 <= region < self.n_regions and 0 <= step < self.n_steps):
            raise DataError("vertex coordinates out of range")
        return step * self.n_regions + region

    def region_of(self, v: int) -> int:
        """Region index of vertex ``v``."""
        return int(v % self.n_regions)

    def step_of(self, v: int) -> int:
        """Time-step index of vertex ``v``."""
        return int(v // self.n_regions)

    # -- traversal -----------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """All vertices adjacent to ``v`` (spatial + temporal edges)."""
        n = self.n_regions
        region = v % n
        step = v // n
        base = step * n
        parts = [base + self._adjacency.region_lists[region]]
        if step > 0:
            parts.append(np.array([v - n], dtype=np.int64))
        if step + 1 < self.n_steps:
            parts.append(np.array([v + n], dtype=np.int64))
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def neighbor_lists(self) -> list[np.ndarray]:
        """Materialized adjacency list for every vertex.

        Useful for tight sweeps (merge-tree construction) where per-call
        overhead matters; memory is O(|E|).
        """
        return [self.neighbors(v) for v in range(self.n_vertices)]

    def region_neighbors(self, region: int) -> np.ndarray:
        """Spatially adjacent regions of ``region``."""
        return self._adjacency.region_lists[region]

    @cached_property
    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as parallel endpoint arrays ``(u, v)``.

        ``u < v`` wherever ``spatial_pairs`` lists the smaller region first.
        Spatial edges come first (step-major, in ``spatial_pairs`` order),
        then temporal ones.  Cached: the join and the split sweep of a
        function read the same arrays.
        """
        n = self.n_regions
        base = np.arange(self.n_steps, dtype=np.int64)[:, None] * n
        earlier = np.arange(self.n_vertices - n, dtype=np.int64)
        u = np.concatenate([(base + self.spatial_pairs[:, 0]).ravel(), earlier])
        v = np.concatenate([(base + self.spatial_pairs[:, 1]).ravel(), earlier + n])
        return u, v

    def neighbor_min(self, rank: np.ndarray) -> np.ndarray:
        """``min(rank[v], min of rank over v's neighbours)`` for every vertex.

        With ``rank`` a sweep order this names each vertex's steepest
        earlier neighbour (itself, at an extremum).  Spatial edges are
        reduced per region over the source-sorted pairs; temporal edges have
        unique sources in each direction, so two shifted ``np.minimum``
        calls cover them.  Neither uses ``ufunc.at``, which NumPy < 2 runs
        an order of magnitude slower.
        """
        n = self.n_regions
        starts, members = self._adjacency.closed_neighborhoods
        grid = rank.reshape(self.n_steps, n)
        out = np.minimum.reduceat(grid[:, members], starts, axis=1).ravel()
        if self.n_steps > 1:
            np.minimum(out[:-n], rank[n:], out=out[:-n])
            np.minimum(out[n:], rank[:-n], out=out[n:])
        return out

    @property
    def is_time_series(self) -> bool:
        """True iff the domain is purely temporal (one region, a 1-D path)."""
        return self.n_regions == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainGraph(regions={self.n_regions}, steps={self.n_steps}, "
            f"edges={self.n_edges})"
        )
