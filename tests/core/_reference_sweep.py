"""The per-vertex union-find sweep: reference oracle for ``core/merge_tree``.

This is the sweep ``repro.core.merge_tree`` ran before it contracted basins:
one Python step per vertex through a union-find over *vertices*.  It is slow
and obviously right, and the contracted sweep must reproduce its extrema,
pairs, edges and root exactly (``test_merge_tree_contraction.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.merge_tree import PersistencePair
from repro.graph.domain_graph import DomainGraph
from repro.utils.errors import TopologyError


@dataclass
class ReferenceTree:
    """What the reference sweep returns (the pre-contraction ``MergeTree``)."""

    kind: str
    extrema: np.ndarray
    pairs: list[PersistencePair]
    edges: list[tuple[int, int]]
    root: int


def _earlier_neighbors(
    graph: DomainGraph, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency restricted to already-processed neighbors.

    Returns ``(indptr, nbrs)`` such that ``nbrs[indptr[v]:indptr[v + 1]]``
    are exactly the neighbors of ``v`` with a smaller sweep rank.  Built
    entirely from vectorized NumPy over the graph's regular structure
    (spatial pairs replicated per step + temporal chains), so the Python
    sweep below never touches ``graph.neighbors`` — the per-vertex array
    concatenations that used to dominate the sweep's constant factor.
    """
    n = graph.n_vertices
    n_regions, n_steps = graph.n_regions, graph.n_steps
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    spatial = graph.spatial_pairs
    if spatial.size:
        base = np.arange(n_steps, dtype=np.int64) * n_regions
        a = (base[:, None] + spatial[:, 0]).ravel()
        b = (base[:, None] + spatial[:, 1]).ravel()
        src_parts += [a, b]
        dst_parts += [b, a]
    if n_steps > 1:
        u = np.arange(n - n_regions, dtype=np.int64)
        src_parts += [u, u + n_regions]
        dst_parts += [u + n_regions, u]
    if not src_parts:
        indptr = np.zeros(n + 1, dtype=np.int64)
        return indptr, np.zeros(0, dtype=np.int64)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    keep = pos[dst] < pos[src]
    src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    nbrs = dst[np.argsort(src, kind="stable")]
    return indptr, nbrs


def reference_sweep(
    graph: DomainGraph, flat_values: np.ndarray, order: np.ndarray, kind: str
) -> ReferenceTree:
    """Union-find sweep shared by join ("descending") and split ("ascending").

    ``order`` lists vertices from most to least extreme for the sweep
    direction.  ``pos[v]`` is the sweep rank of ``v``; a neighbour with a
    smaller rank has already been processed and belongs to some component.

    The sweep itself is inherently sequential, so the hot loop is built on
    flat arrays instead of per-vertex dict juggling: a list-backed
    union-find with path compression and union by rank, component metadata
    (creating extremum, current head) stored at the representative's slot,
    and the earlier-neighbor adjacency precomputed in one vectorized pass
    (:func:`_earlier_neighbors`).  Output — extrema order, pairs, edges,
    root — is bit-identical to the historical dict-based implementation.
    """
    n = flat_values.size
    if n == 0:
        raise TopologyError("cannot compute a merge tree of an empty function")
    if order.shape != (n,):
        raise TopologyError("vertex order length mismatch")
    values = np.asarray(flat_values, dtype=np.float64)

    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)

    indptr_arr, nbrs_arr = _earlier_neighbors(graph, pos)
    # Python lists: scalar indexing in the sequential sweep is several times
    # faster on lists than on NumPy arrays (no per-access boxing).
    indptr = indptr_arr.tolist()
    nbrs = nbrs_arr.tolist()
    pos_list = pos.tolist()
    values_list = values.ravel().tolist()

    parent = list(range(n))
    rank = [0] * n
    # Per-component metadata, stored at the union-find representative's slot.
    creator = [0] * n
    head = [0] * n

    extrema: list[int] = []
    pairs: list[PersistencePair] = []
    edges: list[tuple[int, int]] = []
    n_components = 0

    def union(a: int, b: int) -> int:
        """Merge the sets rooted at ``a`` and ``b``; returns the new root."""
        if rank[a] < rank[b]:
            a, b = b, a
        parent[b] = a
        if rank[a] == rank[b]:
            rank[a] += 1
        return a

    for v in order.tolist():
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            # v creates a new component: it is a leaf extremum.
            extrema.append(v)
            creator[v] = v
            head[v] = v
            n_components += 1
            continue
        # Distinct components among the earlier neighbors (2-3 neighbors for
        # typical domains: a linear membership scan beats set machinery).
        roots: list[int] = []
        for i in range(lo, hi):
            u = nbrs[i]
            r = u
            while parent[r] != r:
                r = parent[r]
            while parent[u] != r:  # path compression
                parent[u], u = r, parent[u]
            if r not in roots:
                roots.append(r)
        r = roots[0]
        if len(roots) == 1:
            # Regular vertex: extend the component; its head only moves at
            # saddles, so the metadata is re-homed to the new root's slot.
            c, h = creator[r], head[r]
            new_root = union(r, v)
            creator[new_root] = c
            head[new_root] = h
            continue
        # v is a destroyer: len(roots) components merge here (2 for Morse
        # inputs, possibly more for degenerate PL saddles).
        infos = [(creator[r], head[r], r) for r in roots]
        # The elder component is the one whose creator is most extreme,
        # i.e. has the smallest sweep rank.
        infos.sort(key=lambda info: pos_list[info[0]])
        elder_creator = infos[0][0]
        value_v = values_list[v]
        for _c, h, _r in infos:
            edges.append((h, v))
        for c, _h, _r in infos[1:]:
            pairs.append(
                PersistencePair(
                    creator=c,
                    destroyer=v,
                    persistence=abs(values_list[c] - value_v),
                )
            )
        new_root = r
        for other in roots[1:]:
            new_root = union(new_root, other)
        new_root = union(new_root, v)
        creator[new_root] = elder_creator
        head[new_root] = v
        n_components -= len(roots) - 1

    # Essential pairs: one per surviving component (one for connected
    # graphs).  Components are emitted in the order their *last* vertex was
    # swept (ascending), matching the insertion order the historical
    # dict-keyed implementation produced via its pop/re-insert cycle.
    last = int(order[-1])
    value_last = values_list[last]
    if n_components == 1:
        r = last
        while parent[r] != r:
            r = parent[r]
        survivor_roots = [r]
    else:
        last_touch: dict[int, int] = {}
        for rank_i, v in enumerate(order.tolist()):
            r = v
            while parent[r] != r:
                r = parent[r]
            last_touch[r] = rank_i
        survivor_roots = sorted(last_touch, key=last_touch.__getitem__)
    for root in survivor_roots:
        c = creator[root]
        span = abs(values_list[c] - value_last)
        pairs.append(PersistencePair(creator=c, destroyer=-1, persistence=span))
        if head[root] != last:
            edges.append((head[root], last))

    # Align pairs with the extrema order.
    by_creator = {p.creator: p for p in pairs}
    aligned = [by_creator[e] for e in extrema]
    return ReferenceTree(
        kind=kind,
        extrema=np.array(extrema, dtype=np.int64),
        pairs=aligned,
        edges=edges,
        root=last,
    )
