"""The batched §4 kernels the way they were first written: count by count.

``repro.core.significance`` computes a group's null scores from two signed
products per pair and builds toroidal shifts on plain lists.  The forms they
replaced left ``src/`` and are kept here as oracles:

* :func:`reference_toroidal_group` — the five co-occurrence matrices
  (pp, nn, pn, np, uu) per pair, stacked in float64;
* :func:`reference_rotation_group` — the five circular cross-correlations
  per pair, one pair of FFTs each;
* :func:`reference_toroidal_map` — the array-based walk whose
  ``_first_free`` rescans the fallback order on every call.

The new kernels must return the same results, and the same maps from the
same generator state, bit for bit.
"""

from collections import deque

import numpy as np

from repro.core.significance import (
    SignificanceResult,
    _adaptive_spans,
    _decided,
    _hits_against,
    _p_value,
    _request_observed,
    domain_toroidal_maps,
)
from repro.utils.rng import ensure_rng


def reference_toroidal_map(neighbors, rng):
    n = len(neighbors)
    image = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    start = int(rng.integers(n))
    target = int(rng.integers(n))
    image[start] = target
    used[target] = True
    queue = deque([start])
    order = rng.permutation(n)

    def first_free():
        for v in order:
            if not used[v]:
                return int(v)
        raise AssertionError("toroidal map ran out of free vertices")

    while queue:
        u = queue.popleft()
        v = int(image[u])
        for un in neighbors[u]:
            un = int(un)
            if image[un] >= 0:
                continue
            candidates = [int(vn) for vn in neighbors[v] if not used[vn]]
            if candidates:
                choice = candidates[int(rng.integers(len(candidates)))]
            else:
                choice = first_free()
            image[un] = choice
            used[choice] = True
            queue.append(un)
    for un in np.flatnonzero(image < 0):
        choice = first_free()
        image[int(un)] = choice
        used[choice] = True
    return image


def _stacked_cross_correlation(a, b):
    m = a.shape[1]
    fa = np.fft.rfft(a.astype(np.float64), axis=1)
    fb = np.fft.rfft(b.astype(np.float64), axis=1)
    corr = np.fft.irfft(fa * np.conj(fb), n=m, axis=1).sum(axis=2)
    return np.rint(corr).astype(np.int64)


def reference_rotation_group(reqs, n_permutations, alternative, mode):
    """Results of ``reqs`` (one domain shape, all rotation-tested)."""

    def result(request, observed, scores):
        return SignificanceResult(
            p_value=_p_value(observed, scores, alternative),
            observed_score=observed,
            n_permutations=int(scores.size),
            method=request.method or "temporal_rotation",
            alternative=alternative,
            mode=mode,
        )

    if reqs[0].fs1.shape[0] < 2:
        return [result(r, _request_observed(r), np.zeros(0)) for r in reqs]
    p1 = np.stack([r.fs1.positive for r in reqs])
    n1 = np.stack([r.fs1.negative for r in reqs])
    u1 = np.stack([r.fs1.union() for r in reqs])
    p2 = np.stack([r.fs2.positive for r in reqs])
    n2 = np.stack([r.fs2.negative for r in reqs])
    u2 = np.stack([r.fs2.union() for r in reqs])
    pp = _stacked_cross_correlation(p1, p2)
    nn = _stacked_cross_correlation(n1, n2)
    pn = _stacked_cross_correlation(p1, n2)
    np_ = _stacked_cross_correlation(n1, p2)
    sigma = _stacked_cross_correlation(u1, u2)
    tau = np.where(sigma > 0, (pp + nn - pn - np_) / np.maximum(sigma, 1), 0.0)
    tau = tau[:, 1:]  # k = 0 is the observed configuration
    out = []
    for request, all_scores in zip(reqs, tau):
        scores = all_scores
        if all_scores.size > n_permutations:
            rng = ensure_rng(request.seed)
            chosen = rng.choice(all_scores.size, size=n_permutations, replace=False)
            scores = all_scores[chosen]
        out.append(result(request, _request_observed(request), scores))
    return out


def reference_toroidal_group(reqs, n_permutations, alternative, mode, alpha):
    """Results of ``reqs`` (one domain shape, one region graph)."""
    maps = domain_toroidal_maps(reqs[0].graph, n_permutations)
    n_regions = reqs[0].fs1.shape[1]

    def cooc(a, b):
        sa = np.stack(a).astype(np.float64)
        sb = np.stack(b).astype(np.float64)
        return sa.transpose(0, 2, 1) @ sb

    p1 = [r.fs1.positive for r in reqs]
    n1 = [r.fs1.negative for r in reqs]
    u1 = [r.fs1.union() for r in reqs]
    p2 = [r.fs2.positive for r in reqs]
    n2 = [r.fs2.negative for r in reqs]
    u2 = [r.fs2.union() for r in reqs]
    num = cooc(p1, p2) + cooc(n1, n2) - cooc(p1, n2) - cooc(n1, p2)
    den = cooc(u1, u2)

    observed = np.array([_request_observed(r) for r in reqs])
    hits = np.zeros(len(reqs), dtype=np.int64)
    done = np.zeros(len(reqs), dtype=np.int64)
    alive = np.arange(len(reqs))
    regions = np.arange(n_regions)
    spans = (
        _adaptive_spans(n_permutations)
        if mode == "adaptive"
        else [(0, n_permutations)]
    )
    for lo, hi in spans:
        if alive.size == 0:
            break
        rows = maps[lo:hi]
        num_g = num[alive][:, rows, regions].sum(axis=2)
        den_g = den[alive][:, rows, regions].sum(axis=2)
        scores = np.where(den_g > 0, num_g / np.maximum(den_g, 1), 0.0)
        hits[alive] += _hits_against(observed[alive], scores, alternative)
        done[alive] = hi
        if mode == "adaptive" and hi < n_permutations:
            alive = alive[~_decided(hits[alive], hi, n_permutations, alpha)]
    return [
        SignificanceResult(
            p_value=float((1 + hits[j]) / (done[j] + 1)),
            observed_score=float(observed[j]),
            n_permutations=int(done[j]),
            method="spatial_toroidal",
            alternative=alternative,
            mode=mode,
        )
        for j in range(len(reqs))
    ]


def reference_batch(requests, n_permutations, alternative, mode, alpha=0.05):
    """``significance_batch`` over the oracle kernels (rotation and toroidal
    requests only), one result per request, in order."""
    groups = {}
    for idx, request in enumerate(requests):
        n_steps, n_regions = request.fs1.shape
        rotates = request.method == "temporal_rotation" or n_regions < 2
        content = b"" if rotates else request.graph.spatial_pairs.tobytes()
        groups.setdefault((rotates, n_steps, n_regions, content), []).append(idx)
    results = [None] * len(requests)
    for (rotates, *_), idxs in groups.items():
        reqs = [requests[i] for i in idxs]
        if rotates:
            group = reference_rotation_group(reqs, n_permutations, alternative, mode)
        else:
            group = reference_toroidal_group(
                reqs, n_permutations, alternative, mode, alpha
            )
        for idx, result in zip(idxs, group):
            results[idx] = result
    return results
