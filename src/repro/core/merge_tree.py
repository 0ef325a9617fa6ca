"""Merge trees (join/split) with persistence pairing (§3.1, Appendix B.2).

The join tree tracks connected components of super-level sets under a
descending sweep of the function value; the split tree does the same for
sub-level sets under an ascending sweep.

Persistence pairing happens during the sweep (Procedure ComputeJoinTree,
line 16): when two components merge at a saddle, the *younger* component —
the one whose creating extremum is less extreme — dies, and its creator is
paired with the saddle.  This is the standard elder rule; the paper's
pseudo-code as printed orders the creators the other way around, but its own
running example (Fig. 4: the component created last, at the lower maximum
v6, dies at v5) follows the elder rule, which we therefore implement.

Simulated perturbation: all comparisons use the strict total order
``(value, vertex_id)`` so degenerate (equal-valued) inputs behave like Morse
functions.  Degenerate saddles where more than two components meet are merged
in one step, pairing every non-elder creator with the saddle — equivalent to
splitting the saddle into simple saddles (§B.1).

Contract, then sweep
--------------------
A vertex-at-a-time union-find sweep spends almost all of its steps on
regular vertices, which only extend a component.  The sweep here visits
critical structure only, in three stages:

1. *Basins.*  Every vertex points at its steepest earlier neighbour — the
   adjacent vertex of smallest sweep rank, itself at a leaf extremum — and
   pointer jumping (``ptr = ptr[ptr]``, at most ⌈log₂ n⌉ + 1 rounds) labels
   it with the extremum its steepest path ends at.  Every vertex on that
   path is swept before the vertex itself, so the moment a vertex enters
   the sweep it is connected to its extremum: at every level its component
   is its extremum's component.  The vertices of a basin can therefore be
   contracted into the extremum without changing any component, and so
   without changing a single pair.
2. *One edge per basin pair.*  Only an edge between two basins can join
   two components, at the moment its lower endpoint is swept.  Of all edges
   between the same two basins the first swept one joins them (or finds
   them joined through a third basin); every later one finds them in one
   component and merges nothing.  So one edge per unordered basin pair is
   kept, ordered by the sweep rank of its lower endpoint.
3. *Elder-rule union-find over basins* along those edges, grouped by lower
   endpoint so that a degenerate saddle still merges all its components in
   one step.

Stages 1 and 2 are NumPy over the graph's edge list, ``O(E log E)``; stage 3
is the only interpreted loop, one step per adjacent basin pair — ``O(B log
B)`` for ``B`` such pairs (path compression alone; the elder always becomes
the root, which is what makes a root its component's creator).  A smooth
21,504-vertex hourly function has tens to hundreds of basins.  The
per-vertex sweep this replaces is kept as the oracle in
``tests/core/_reference_sweep.py``; extrema, pairs, edges and root are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.domain_graph import DomainGraph
from ..utils.errors import TopologyError


@dataclass(frozen=True)
class PersistencePair:
    """A creator extremum paired with the saddle that destroys its component.

    ``destroyer`` is ``-1`` for the essential pair (the component that
    survives the whole sweep; its persistence spans the global range).
    """

    creator: int
    destroyer: int
    persistence: float


@dataclass
class MergeTree:
    """A join or split tree plus the persistence pairing of its extrema.

    The pairing is held as three aligned arrays, one entry per extremum;
    :attr:`pairs` is the same information as objects.

    Attributes
    ----------
    kind:
        ``"join"`` (tracks super-level sets; leaves are maxima) or
        ``"split"`` (tracks sub-level sets; leaves are minima).
    extrema:
        Vertex ids of the leaf extrema, in sweep order (most extreme first).
    destroyers:
        The saddle vertex that destroys each extremum's component; ``-1``
        for an essential extremum, whose component survives the sweep.
    persistence:
        ``|f(extremum) - f(destroyer)|``; for an essential extremum the
        destroyer is taken to be :attr:`root`, so its persistence spans the
        global range.
    edges:
        Tree edges ``(child_vertex, parent_vertex)`` discovered at merges;
        together with the leaf-to-saddle chains these form the merge tree of
        Fig. 4(a).
    root:
        The last vertex of the sweep (global minimum for join trees, global
        maximum for split trees).
    values:
        Reference to the vertex-indexed function values.
    """

    kind: str
    extrema: np.ndarray
    destroyers: np.ndarray
    persistence: np.ndarray
    edges: list[tuple[int, int]]
    root: int
    values: np.ndarray

    @property
    def n_extrema(self) -> int:
        """Number of leaf extrema (= number of persistence pairs)."""
        return int(self.extrema.size)

    @property
    def pairs(self) -> list[PersistencePair]:
        """One :class:`PersistencePair` per extremum, aligned with ``extrema``."""
        return [
            PersistencePair(creator, destroyer, persistence)
            for creator, destroyer, persistence in zip(
                self.extrema.tolist(),
                self.destroyers.tolist(),
                self.persistence.tolist(),
            )
        ]

    def extremum_values(self) -> np.ndarray:
        """Function value at each extremum, aligned with :attr:`extrema`."""
        return self.values[self.extrema]

    def persistence_of(self, vertex: int) -> float:
        """Persistence of the extremum at ``vertex``."""
        hit = np.flatnonzero(self.extrema == vertex)
        if hit.size == 0:
            raise TopologyError(f"vertex {vertex} is not a leaf extremum of this tree")
        return float(self.persistence[hit[0]])


def compute_join_tree(
    graph: DomainGraph, flat_values: np.ndarray, order: np.ndarray | None = None
) -> MergeTree:
    """Join tree of a PL function on ``graph`` (descending sweep).

    Parameters
    ----------
    graph:
        The domain graph.
    flat_values:
        Vertex-indexed function values.
    order:
        Optional precomputed descending vertex order (perturbed); computed
        from ``flat_values`` when omitted.
    """
    if order is None:
        ids = np.arange(flat_values.size)
        order = np.lexsort((-ids, -flat_values))
    return _sweep(graph, flat_values, order, kind="join")


def compute_split_tree(
    graph: DomainGraph, flat_values: np.ndarray, order: np.ndarray | None = None
) -> MergeTree:
    """Split tree of a PL function on ``graph`` (ascending sweep)."""
    if order is None:
        ids = np.arange(flat_values.size)
        order = np.lexsort((ids, flat_values))
    return _sweep(graph, flat_values, order, kind="split")


def _contract(ptr: np.ndarray) -> np.ndarray:
    """Pointer-jump ``ptr`` to its fixed points: the root of every entry.

    ``ptr[i] <= i`` with equality at the roots.  Each round doubles the
    distance every pointer spans, so a chain of ``L`` links is resolved after
    ⌈log₂ L⌉ rounds and one more finds nothing left to do.
    """
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            return ptr
        ptr = jumped


def _first_basin_edges(
    graph: DomainGraph, rank: np.ndarray, basin_of: np.ndarray, n_basins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair of adjacent basins, the edge between them that is swept first.

    ``basin_of`` is vertex-indexed.  An edge is swept when its lower
    endpoint is, so per unordered basin pair the smallest rank of a lower
    endpoint is kept.  Returns ``(when, low, high)`` sorted by ``when``: the
    lower endpoint's rank and the pair's two basin numbers, ``low < high``.
    """
    u, v = graph.edge_list
    basin_u, basin_v = basin_of[u], basin_of[v]
    cross = np.flatnonzero(basin_u != basin_v)
    basin_u, basin_v = basin_u[cross], basin_v[cross]
    when = np.maximum(rank[u[cross]], rank[v[cross]])
    pair = np.minimum(basin_u, basin_v) * n_basins + np.maximum(basin_u, basin_v)
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    is_first = np.ones(pair.size, dtype=bool)
    is_first[1:] = pair[1:] != pair[:-1]
    starts = np.flatnonzero(is_first)
    first = np.minimum.reduceat(when[by_pair], starts)
    by_time = np.argsort(first)
    low, high = np.divmod(pair[starts][by_time], n_basins)
    return first[by_time], low, high


def _sweep(
    graph: DomainGraph, flat_values: np.ndarray, order: np.ndarray, kind: str
) -> MergeTree:
    """Contracted sweep shared by join ("descending") and split ("ascending").

    ``order`` lists vertices from most to least extreme for the sweep
    direction; ``rank[v]`` is the sweep rank of ``v``, and a neighbour of
    smaller rank is *earlier*.  See the module docstring for why contracting
    basins and keeping one edge per basin pair leaves every pair unchanged.
    """
    n = flat_values.size
    if n == 0:
        raise TopologyError("cannot compute a merge tree of an empty function")
    if order.shape != (n,):
        raise TopologyError("vertex order length mismatch")
    values = np.asarray(flat_values, dtype=np.float64)
    all_ranks = np.arange(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = all_ranks

    # Stage 1, in rank space (entry r is the vertex order[r]): steepest
    # earlier neighbour, then the extremum its steepest path ends at.
    steepest = graph.neighbor_min(rank)[order]
    is_extremum = steepest == all_ranks
    extrema = order[is_extremum].astype(np.int64, copy=False)
    n_basins = extrema.size
    # Basins are numbered in sweep order of their extrema, so the elder of
    # two components is always the one holding the smaller number.
    basin = (np.cumsum(is_extremum, dtype=np.int64) - 1)[_contract(steepest)]

    # Stage 3 state: union-find over basins whose root is the component's
    # elder basin, i.e. its creator.
    parent = list(range(n_basins))
    # A component's head is the vertex its next tree edge starts from: its
    # creator until a saddle takes over.  Kept at the component's root.
    head = extrema.tolist()
    destroyer = [-1] * n_basins
    edges: list[tuple[int, int]] = []

    def find(b: int) -> int:
        root = b
        while parent[root] != root:
            root = parent[root]
        while parent[b] != root:
            parent[b], b = root, parent[b]
        return root

    def merge(saddle: int, roots: list[int]) -> None:
        """``saddle`` joins the components rooted at ``roots``."""
        roots.sort()
        elder = roots[0]
        for root in roots:
            edges.append((head[root], saddle))
        for root in roots[1:]:
            destroyer[root] = saddle
            parent[root] = elder
        head[elder] = saddle

    if n_basins > 1:
        when, low, high = _first_basin_edges(graph, rank, basin[rank], n_basins)
        # Of each edge's two basins one is the lower endpoint's own; all
        # edges of one saddle share it.
        own = basin[when]
        saddle, roots = -1, []
        for vertex, b_own, b_other in zip(
            order[when].tolist(), own.tolist(), (low + high - own).tolist()
        ):
            if vertex != saddle:
                if len(roots) > 1:
                    merge(saddle, roots)
                saddle, roots = vertex, [find(b_own)]
            root = find(b_other)
            if root not in roots:
                roots.append(root)
        if len(roots) > 1:
            merge(saddle, roots)

    # Essential extrema: one per surviving component (one for connected
    # graphs).  Each contributes an edge to the sweep's last vertex, in the
    # order the components' own last vertices were swept.
    last = int(order[-1])
    destroyers = np.array(destroyer, dtype=np.int64)
    survivors = np.flatnonzero(destroyers < 0).tolist()
    if len(survivors) > 1:
        last_rank = (n - 1 - np.unique(basin[::-1], return_index=True)[1]).tolist()
        for b in range(n_basins):
            root = find(b)
            last_rank[root] = max(last_rank[root], last_rank[b])
        survivors.sort(key=last_rank.__getitem__)
    for root in survivors:
        if head[root] != last:
            edges.append((head[root], last))

    flat = values.ravel()
    ends = flat[np.where(destroyers < 0, last, destroyers)]
    return MergeTree(
        kind=kind,
        extrema=extrema,
        destroyers=destroyers,
        persistence=np.abs(flat[extrema] - ends),
        edges=edges,
        root=last,
        values=values,
    )
