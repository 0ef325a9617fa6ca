"""Restricted Monte Carlo permutation tests (§4).

Urban data carries spatial and temporal autocorrelation; naive permutation
tests that scramble every point independently destroy that structure and
overstate significance.  The paper's randomizations preserve it:

* **Temporal correlation** (functions whose domain is purely temporal): time
  is wrapped onto a 1-D torus and rotated — every randomization is a circular
  shift, which preserves the series' autocorrelation exactly.
* **Spatial correlation** (functions with a spatial domain): the region graph
  is mapped onto itself by a breadth-first *toroidal shift* — a random
  bijection grown from a random seed pair so that adjacent regions map to
  adjacent regions wherever possible.

A *naive* full-shuffle test is also provided for the ablation benchmark that
reproduces the paper's §6.3 observation (the standard test rejects genuine
relationships such as snow-precipitation vs. bike-trip duration).

Implementation notes.  For rotations the per-shift intersection counts are
circular cross-correlations, computed for *all* shifts at once with FFTs in
``O(n_regions · n_steps log n_steps)``.  For toroidal shifts the counts
reduce to gathers over precomputed region-by-region co-occurrence matrices
(``C[r, s] = Σ_t mask1[t, r] · mask2[t, s]``), so each of the |m| = 1,000
shifts costs only O(n_regions).

Signed kernels.  The statistic of a randomization is
``(pp + nn − pn − np) / uu`` over the five co-occurrence counts of the
positive, negative and union masks.  The per-pair reference computes the
five; the batched kernels compute two.  With ``D = P − N`` (entries −1, 0,
1) and ``U = P ∨ N`` per function, ``Σ D₁·D₂ = pp + nn − pn − np`` term by
term — an identity of the integers, so it also holds where a point is both
a positive and a negative feature (D = 0, U = 1) — and ``Σ U₁·U₂ = uu``.
``D`` and ``U`` are made once per distinct feature set of a group, not per
pair.  Every entry and every partial sum is an integer of magnitude at most
``n_steps · n_regions``, so float32 holds them exactly while that product
is below 2²⁴ (float64 beyond); the sums are widened to float64 before the
one division, which therefore sees the operands the reference sees.

The permutation statistic counts #p as ``|Σ⁺₁∩Σ⁺₂| + |Σ⁻₁∩Σ⁻₂|``; this equals
Definition 10's union count whenever a function's positive and negative
features are disjoint (always true when θ⁻ < θ⁺, i.e. for every non-degenerate
threshold pair), and only the null distribution — not the observed score —
uses it.

Evaluation modes.  Three modes trade per-pair Python overhead for speed
while pinning down exactly what they preserve:

* ``"exact"`` — the reference: one pair at a time, the full permutation
  loop.  Bit-identical across releases and executors; everything else is
  validated against it.
* ``"batched"`` — :func:`significance_batch` vectorizes the permutation
  test across a whole chunk of pairs at once (one FFT per distinct mask and
  two spectrum products per pair for rotations; two co-occurrence products
  per pair and one gather per span for toroidal shifts).  All null counts
  are exact integers, so batched p-values are **bit-identical** to exact
  mode.
* ``"adaptive"`` — batched scoring plus sequential early termination: a
  pair's permutation stream (identical to exact mode's, in the same
  order) is consumed in growing spans, and permuting stops as soon as the
  significance *decision* at the configured α is mathematically settled —
  either the hit count alone already forces p > α, or even all remaining
  permutations hitting could not push p above α.  The reported p-value
  then uses fewer permutations (recorded in
  ``SignificanceResult.n_permutations``), but the decision
  ``is_significant(alpha)`` is **provably identical** to exact mode's.

Exhaustive fallback.  When the domain admits fewer distinct randomizations
than requested — temporal rotations have only ``n_steps - 1`` non-trivial
shifts — the test evaluates the full population instead of sampling, and
``SignificanceResult.n_permutations`` reports the count actually evaluated
(all four score paths do this; the rotation path is where it commonly
bites).  The rotation path computes every shift in one FFT pass, so for it
all three modes return identical p-values.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.domain_graph import DomainGraph
from ..utils.errors import DataError
from ..utils.rng import RngLike, ensure_rng
from .features import FeatureSet
from .relationship import _FLOAT32_EXACT, evaluate_features

#: Significance level used throughout the paper (§5.3).
DEFAULT_ALPHA = 0.05

#: Number of randomizations |m| used by the paper (§4).
DEFAULT_PERMUTATIONS = 1000

_ALTERNATIVES = ("two-sided", "greater", "less")

#: Evaluation modes for the permutation test (see the module docstring).
SIGNIFICANCE_MODES = ("exact", "batched", "adaptive")


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of a Monte Carlo significance test for one function pair.

    ``n_permutations`` is the number of randomizations actually evaluated —
    smaller than the requested |m| when the domain admits fewer distinct
    shifts (exhaustive fallback) or when adaptive mode stopped early.
    """

    p_value: float
    observed_score: float
    n_permutations: int
    method: str
    alternative: str
    mode: str = "exact"

    def is_significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        """Definition 14: the relationship is significant iff p ≤ α."""
        return self.p_value <= alpha


def significance_test(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    alternative: str = "two-sided",
    method: str | None = None,
    seed: RngLike = None,
    mode: str = "exact",
    alpha: float = DEFAULT_ALPHA,
) -> SignificanceResult:
    """Restricted Monte Carlo test for a pair of feature sets.

    Parameters
    ----------
    fs1, fs2:
        Aligned feature sets (same ``(n_steps, n_regions)`` shape).
    graph:
        Domain graph shared by the two functions (provides the region
        adjacency used to build toroidal shifts).
    n_permutations:
        Number of randomizations |m|.
    alternative:
        ``"two-sided"`` (default; tests |τ|), ``"greater"`` or ``"less"``.
        The paper's Eq. 4 is the left tail; two-sided matches its reported
        usage where both strong positive and strong negative relationships
        survive the filter.
    method:
        Force ``"temporal_rotation"``, ``"spatial_toroidal"`` or ``"naive"``.
        Default: rotation for purely temporal domains, toroidal shifts
        otherwise (§4).
    seed:
        RNG seed for reproducible tests.
    mode:
        ``"exact"`` (default), ``"batched"`` or ``"adaptive"`` — see the
        module docstring.  Batched is bit-identical to exact; adaptive is
        decision-identical at ``alpha``.
    alpha:
        Significance level driving adaptive early termination.  Ignored by
        the other modes.
    """
    if mode not in SIGNIFICANCE_MODES:
        raise DataError(f"unknown significance mode {mode!r}")
    if mode != "exact":
        request = SignificanceRequest(fs1, fs2, graph, seed=seed, method=method)
        return significance_batch(
            [request],
            n_permutations=n_permutations,
            alternative=alternative,
            mode=mode,
            alpha=alpha,
        )[0]
    if alternative not in _ALTERNATIVES:
        raise DataError(f"unknown alternative {alternative!r}")
    if fs1.shape != fs2.shape:
        raise DataError("feature sets must be aligned before testing")
    if method is None:
        method = "temporal_rotation" if graph.is_time_series else "spatial_toroidal"

    observed = evaluate_features(fs1, fs2).score
    rng = ensure_rng(seed)

    if method == "temporal_rotation":
        scores = _rotation_scores(fs1, fs2, n_permutations, rng)
    elif method == "spatial_toroidal":
        scores = _toroidal_scores(fs1, fs2, graph, n_permutations, rng)
    elif method == "spatiotemporal_torus":
        scores = _torus3_scores(fs1, fs2, graph, n_permutations, rng)
    elif method == "naive":
        scores = _naive_scores(fs1, fs2, n_permutations, rng)
    else:
        raise DataError(f"unknown significance method {method!r}")

    p = _p_value(observed, scores, alternative)
    return SignificanceResult(
        p_value=p,
        observed_score=observed,
        n_permutations=int(scores.size),
        method=method,
        alternative=alternative,
    )


def _count_hits(observed: float, scores: np.ndarray, alternative: str) -> int:
    """Permutation scores at least as extreme as ``observed``."""
    eps = 1e-12
    if alternative == "two-sided":
        return int(np.count_nonzero(np.abs(scores) >= abs(observed) - eps))
    if alternative == "greater":
        return int(np.count_nonzero(scores >= observed - eps))
    return int(np.count_nonzero(scores <= observed + eps))


def _p_value(observed: float, scores: np.ndarray, alternative: str) -> float:
    """Add-one permutation p-value (the observed statistic counts once)."""
    hits = _count_hits(observed, scores, alternative)
    return float((1 + hits) / (scores.size + 1))


# ---------------------------------------------------------------------------
# Temporal rotations (1-D torus)
# ---------------------------------------------------------------------------


def _cross_correlation_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``counts[k] = Σ_t Σ_r a[t, r] * b[(t - k) % m, r]`` for all shifts k.

    Computed with FFTs along the time axis and summed over regions.  Inputs
    are boolean masks; the result is rounded back to exact integers.
    """
    m = a.shape[0]
    fa = np.fft.rfft(a.astype(np.float64), axis=0)
    fb = np.fft.rfft(b.astype(np.float64), axis=0)
    corr = np.fft.irfft(fa * np.conj(fb), n=m, axis=0).sum(axis=1)
    return np.rint(corr).astype(np.int64)


def rotation_scores_all(fs1: FeatureSet, fs2: FeatureSet) -> np.ndarray:
    """Relationship score of every non-trivial circular time shift.

    Index k of the result is the score after rotating ``fs2`` forward in time
    by k steps (k = 1 .. n_steps-1).
    """
    p1, n1 = fs1.positive, fs1.negative
    p2, n2 = fs2.positive, fs2.negative
    u1, u2 = fs1.union(), fs2.union()
    pp = _cross_correlation_counts(p1, p2)
    nn = _cross_correlation_counts(n1, n2)
    pn = _cross_correlation_counts(p1, n2)
    np_ = _cross_correlation_counts(n1, p2)
    sigma = _cross_correlation_counts(u1, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(sigma > 0, (pp + nn - pn - np_) / np.maximum(sigma, 1), 0.0)
    return tau[1:]  # k = 0 is the observed configuration


def _rotation_scores(
    fs1: FeatureSet, fs2: FeatureSet, n_permutations: int, rng: np.random.Generator
) -> np.ndarray:
    n_steps = fs1.shape[0]
    if n_steps < 2:
        return np.zeros(0)
    all_scores = rotation_scores_all(fs1, fs2)
    if all_scores.size <= n_permutations:
        return all_scores
    chosen = rng.choice(all_scores.size, size=n_permutations, replace=False)
    return all_scores[chosen]


# ---------------------------------------------------------------------------
# Spatial toroidal shifts (graph self-maps, §4)
# ---------------------------------------------------------------------------


def toroidal_map(
    neighbors: Sequence[Sequence[int]], rng: np.random.Generator
) -> np.ndarray:
    """One adjacency-respecting random bijection of the region graph.

    Starts from a random seed assignment ``m(u0) = v0`` and grows breadth-
    first: each unassigned neighbour of ``u`` is mapped onto an unused
    neighbour of ``m(u)`` when one exists (preserving adjacency), otherwise
    onto a random unused region.  The result is always a permutation.

    ``neighbors`` lists each region's adjacent regions; plain lists of ints
    are fastest (the walk is interpreted), arrays work too.
    """
    n = len(neighbors)
    image = [-1] * n
    used = [False] * n
    start = int(rng.integers(n))
    target = int(rng.integers(n))
    image[start] = target
    used[target] = True
    queue: deque[int] = deque([start])
    order = rng.permutation(n).tolist()
    cursor = 0

    def first_free() -> int:
        # ``used`` only grows, so the first free entry of ``order`` only
        # moves right: the cursor never rescans what it has passed.
        nonlocal cursor
        while used[order[cursor]]:
            cursor += 1
        return order[cursor]

    def assign(un: int, choice: int) -> None:
        image[un] = choice
        used[choice] = True

    while queue:
        u = queue.popleft()
        around = neighbors[image[u]]
        for un in neighbors[u]:
            if image[un] >= 0:
                continue
            candidates = [vn for vn in around if not used[vn]]
            if candidates:
                assign(un, candidates[int(rng.integers(len(candidates)))])
            else:
                assign(un, first_free())
            queue.append(un)
    for un in range(n):  # regions the walk never reached
        if image[un] < 0:
            assign(un, first_free())
    return np.array(image, dtype=np.int64)


def adjacency_preservation(neighbors: list[np.ndarray], image: np.ndarray) -> float:
    """Fraction of graph edges whose endpoints stay adjacent under ``image``.

    Diagnostic for the quality of a toroidal shift (§4 asks that distances be
    preserved 'in most cases').
    """
    neighbor_sets = [set(int(x) for x in ns) for ns in neighbors]
    total = 0
    kept = 0
    for u, ns in enumerate(neighbors):
        for w in ns:
            if u < int(w):
                total += 1
                if int(image[w]) in neighbor_sets[int(image[u])]:
                    kept += 1
    return kept / total if total else 1.0


@dataclass
class _ToroidalFamily:
    """The shifts built so far for one region graph, and the generator that
    builds the next one."""

    neighbors: list[list[int]]
    rng: np.random.Generator
    maps: np.ndarray


#: Domain-level cache of toroidal-shift families.  §4 defines the |m| shifts
#: as randomizations of the *spatial domain*, so one family per region graph
#: is both faithful and fast: reusing the same permutations across function
#: pairs is the standard formulation of a permutation test.  A family is
#: seeded by the graph's content only, so it is keyed by that alone: a
#: smaller request is a prefix of what is cached and a larger one extends
#: it.  The lock makes the cache safe under the thread executor.
_TOROIDAL_CACHE: dict[tuple[int, bytes], _ToroidalFamily] = {}
_TOROIDAL_CACHE_LIMIT = 32
_TOROIDAL_CACHE_LOCK = threading.Lock()


def region_graph_key(
    graph: DomainGraph, memo: dict[int, tuple[int, bytes]] | None = None
) -> tuple[int, bytes]:
    """What a toroidal-shift family is a function of: the region count and
    the adjacency pairs' content.  A query's functions keep one graph object
    each and meet many partners, so callers that walk candidates pass a
    ``memo`` (keyed by graph identity, for graphs they keep alive) and
    serialize each graph once."""
    if memo is None:
        return graph.n_regions, graph.spatial_pairs.tobytes()
    key = memo.get(id(graph))
    if key is None:
        key = memo[id(graph)] = region_graph_key(graph)
    return key


def domain_toroidal_maps(graph: DomainGraph, n_maps: int) -> np.ndarray:
    """The first ``n_maps`` toroidal shifts of a region graph's family.

    Read-only, shape ``(n_maps, n_regions)``; repeated calls for the count
    that is cached return the same array object.
    """
    key = region_graph_key(graph)
    n_regions = graph.n_regions
    with _TOROIDAL_CACHE_LOCK:
        family = _TOROIDAL_CACHE.get(key)
        if family is None:
            if len(_TOROIDAL_CACHE) >= _TOROIDAL_CACHE_LIMIT:
                _TOROIDAL_CACHE.pop(next(iter(_TOROIDAL_CACHE)))
            family = _TOROIDAL_CACHE[key] = _ToroidalFamily(
                [graph.region_neighbors(r).tolist() for r in range(n_regions)],
                ensure_rng(zlib.crc32(key[1]) + n_regions),
                np.empty((0, n_regions), dtype=np.int64),
            )
        missing = n_maps - len(family.maps)
        if missing > 0:
            grown = [toroidal_map(family.neighbors, family.rng) for _ in range(missing)]
            family.maps = np.concatenate([family.maps, grown])
            family.maps.flags.writeable = False
        maps = family.maps
    return maps if len(maps) == n_maps else maps[:n_maps]


def _toroidal_scores(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    n_regions = fs1.shape[1]
    if n_regions < 2:
        # Degenerate spatial domain: fall back to temporal rotations.
        return _rotation_scores(fs1, fs2, n_permutations, rng)
    maps = domain_toroidal_maps(graph, n_permutations)

    p1, n1 = fs1.positive, fs1.negative
    p2, n2 = fs2.positive, fs2.negative
    u1, u2 = fs1.union(), fs2.union()
    # Co-occurrence matrices: C[r, s] = sum_t mask1[t, r] * mask2[t, s].
    c_pp = p1.T.astype(np.float64) @ p2.astype(np.float64)
    c_nn = n1.T.astype(np.float64) @ n2.astype(np.float64)
    c_pn = p1.T.astype(np.float64) @ n2.astype(np.float64)
    c_np = n1.T.astype(np.float64) @ p2.astype(np.float64)
    c_uu = u1.T.astype(np.float64) @ u2.astype(np.float64)

    scores = np.empty(n_permutations, dtype=np.float64)
    regions = np.arange(n_regions)
    for i in range(n_permutations):
        # mask2 region r is relocated to rows[r]; the intersection with
        # mask1 therefore pairs mask1 column rows[r] with mask2 column r.
        rows = maps[i]
        pp = c_pp[rows, regions].sum()
        nn = c_nn[rows, regions].sum()
        pn = c_pn[rows, regions].sum()
        np_ = c_np[rows, regions].sum()
        sig = c_uu[rows, regions].sum()
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Combined spatio-temporal torus (§8 future work)
# ---------------------------------------------------------------------------


def _torus3_scores(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomizations combining a toroidal spatial shift with a time rotation.

    The paper's §8 proposes extending the significance test to a 3-torus that
    wraps space and time together; each randomization here applies an
    adjacency-respecting spatial self-map *and* a circular time rotation to
    the second function's features, preserving both correlation structures
    simultaneously.
    """
    n_steps, n_regions = fs1.shape
    if n_regions < 2:
        return _rotation_scores(fs1, fs2, n_permutations, rng)
    maps = domain_toroidal_maps(graph, n_permutations)
    p1, n1, u1 = fs1.positive, fs1.negative, fs1.union()
    p2, n2, u2 = fs2.positive, fs2.negative, fs2.union()
    scores = np.empty(n_permutations, dtype=np.float64)
    for i in range(n_permutations):
        k = int(rng.integers(1, n_steps)) if n_steps > 1 else 0
        cols = maps[i]
        p2s = np.roll(p2, k, axis=0)
        n2s = np.roll(n2, k, axis=0)
        u2s = np.roll(u2, k, axis=0)
        # Column permutation: region r of fs2 relocated to cols[r].
        pp = int(np.count_nonzero(p1[:, cols] & p2s))
        nn = int(np.count_nonzero(n1[:, cols] & n2s))
        pn = int(np.count_nonzero(p1[:, cols] & n2s))
        np_ = int(np.count_nonzero(n1[:, cols] & p2s))
        sig = int(np.count_nonzero(u1[:, cols] & u2s))
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Naive (unrestricted) permutation — ablation baseline
# ---------------------------------------------------------------------------


def _naive_scores(
    fs1: FeatureSet, fs2: FeatureSet, n_permutations: int, rng: np.random.Generator
) -> np.ndarray:
    """Scores under full independent shuffling of all spatio-temporal points.

    This is the 'standard Monte Carlo procedure' of §6.3: it ignores spatial
    and temporal dependence entirely.
    """
    shape = fs1.shape
    size = shape[0] * shape[1]
    p1 = fs1.positive.ravel()
    n1 = fs1.negative.ravel()
    p2 = fs2.positive.ravel()
    n2 = fs2.negative.ravel()
    scores = np.empty(n_permutations, dtype=np.float64)
    for i in range(n_permutations):
        perm = rng.permutation(size)
        pp = np.count_nonzero(p1 & p2[perm])
        nn = np.count_nonzero(n1 & n2[perm])
        pn = np.count_nonzero(p1 & n2[perm])
        np_ = np.count_nonzero(n1 & p2[perm])
        sig = np.count_nonzero((p1 | n1) & (p2 | n2)[perm])
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Batched + adaptive evaluation (query hot path)
# ---------------------------------------------------------------------------

#: First adaptive span size; spans double afterwards so a decided pair pays
#: at most ~2x the permutations it minimally needed.
_ADAPTIVE_FIRST_SPAN = 32

#: Most elements of one transient array inside the group kernels: the
#: co-occurrence products and the per-span gathers run in slabs of this
#: size, so a group's peak memory is its per-function masks plus its
#: co-occurrence table, not a multiple of either.  Measured on the ledger's
#: urban query: 2**16 is a quarter slower (four shifts per gather at 128
#: pairs x 64 regions), 2**20 no faster and 6 MB heavier per worker.
_SLAB_ELEMENTS = 2**18


@dataclass(frozen=True)
class SignificanceRequest:
    """One pair queued for :func:`significance_batch`.

    ``observed`` lets callers that already computed the relationship score
    (e.g. while filtering candidates) skip the recompute; ``None`` means
    re-evaluate, exactly as :func:`significance_test` does.  ``maps`` lets
    a caller that already holds the toroidal-shift family of ``graph``
    (:func:`domain_toroidal_maps`, at least as many shifts as will be
    requested) hand it over, so that a worker process never builds it.
    """

    fs1: FeatureSet
    fs2: FeatureSet
    graph: DomainGraph
    seed: RngLike = None
    method: str | None = None
    observed: float | None = None
    maps: np.ndarray | None = None


def _adaptive_spans(n_avail: int) -> list[tuple[int, int]]:
    """Fixed doubling span boundaries over the permutation stream.

    The boundaries depend only on ``n_avail`` — never on which pairs share a
    batch — so a pair stops at the same permutation count under any
    chunking or executor, keeping adaptive results bit-identical across
    parallel plans.
    """
    spans = []
    lo = 0
    size = _ADAPTIVE_FIRST_SPAN
    while lo < n_avail:
        hi = min(lo + size, n_avail)
        spans.append((lo, hi))
        lo = hi
        size *= 2
    return spans


def _decided(hits, n_done, n_avail: int, alpha: float):
    """True where the significance decision at ``alpha`` is already forced.

    Not-significant: the exact-mode p-value is ``(1 + H) / (n_avail + 1)``
    with final hit count ``H >= hits``; float division is monotone in the
    numerator, so ``(1 + hits) / (n_avail + 1) > alpha`` already forces it
    above alpha.  The early-stop p ``(1 + hits) / (n_done + 1)`` only has a
    smaller denominator, so its decision agrees.

    Significant: ``H <= hits + (n_avail - n_done)``, so the first clause
    forces the exact-mode p under alpha; the second clause pins the
    *reported* early-stop quotient under alpha too (guarding the one-ulp
    gap between the two float divisions).
    """
    remaining = n_avail - n_done
    not_sig = (1.0 + hits) / (n_avail + 1) > alpha
    sig = ((1.0 + hits + remaining) / (n_avail + 1) <= alpha) & (
        (1.0 + hits) / (n_done + 1) <= alpha
    )
    return not_sig | sig


def _hits_against(
    observed: np.ndarray, scores: np.ndarray, alternative: str
) -> np.ndarray:
    """Row-wise hit counts: ``observed`` is (P,), ``scores`` is (P, k)."""
    eps = 1e-12
    if alternative == "two-sided":
        return (np.abs(scores) >= np.abs(observed)[:, None] - eps).sum(axis=1)
    if alternative == "greater":
        return (scores >= observed[:, None] - eps).sum(axis=1)
    return (scores <= observed[:, None] + eps).sum(axis=1)


def _request_observed(request: SignificanceRequest) -> float:
    if request.observed is not None:
        return float(request.observed)
    return evaluate_features(request.fs1, request.fs2).score


def significance_batch(
    requests: list[SignificanceRequest],
    n_permutations: int = DEFAULT_PERMUTATIONS,
    alternative: str = "two-sided",
    mode: str = "batched",
    alpha: float = DEFAULT_ALPHA,
) -> list[SignificanceResult]:
    """Vectorized permutation tests for a chunk of pairs at once.

    Returns one :class:`SignificanceResult` per request, in order.  Pairs
    are grouped by method and domain shape: rotation pairs share one FFT
    per distinct mask, toroidal pairs over the same region graph share the
    per-function signed masks and a single gather per span.  A pair's result
    depends on nothing but the pair: any order and any split of the request
    list gives the same results.  ``mode="batched"`` is bit-identical to
    per-pair exact results; ``mode="adaptive"`` adds early termination that
    provably preserves every ``is_significant(alpha)`` decision (see
    :func:`_decided`).
    """
    if alternative not in _ALTERNATIVES:
        raise DataError(f"unknown alternative {alternative!r}")
    if mode not in ("batched", "adaptive"):
        raise DataError(f"unknown batch significance mode {mode!r}")

    rotation_groups: dict[tuple[int, int], list[tuple[int, str]]] = {}
    toroidal_groups: dict[tuple[int, int, bytes], list[int]] = {}
    stream_items: list[tuple[int, str]] = []
    graph_keys: dict[int, tuple[int, bytes]] = {}
    for idx, request in enumerate(requests):
        if request.fs1.shape != request.fs2.shape:
            raise DataError("feature sets must be aligned before testing")
        method = request.method
        if method is None:
            method = (
                "temporal_rotation"
                if request.graph.is_time_series
                else "spatial_toroidal"
            )
        if method not in (
            "temporal_rotation",
            "spatial_toroidal",
            "spatiotemporal_torus",
            "naive",
        ):
            raise DataError(f"unknown significance method {method!r}")
        n_steps, n_regions = request.fs1.shape
        if method == "temporal_rotation" or (
            n_regions < 2 and method in ("spatial_toroidal", "spatiotemporal_torus")
        ):
            # Degenerate spatial domains fall back to rotations (matching
            # the exact path) but keep their requested method label.
            rotation_groups.setdefault((n_steps, n_regions), []).append((idx, method))
        elif method == "spatial_toroidal":
            key = (n_steps, *region_graph_key(request.graph, graph_keys))
            toroidal_groups.setdefault(key, []).append(idx)
        else:
            stream_items.append((idx, method))

    results: list[SignificanceResult | None] = [None] * len(requests)
    with obs.span(
        "significance.batch",
        n_requests=len(requests),
        mode=mode,
        n_groups=len(rotation_groups) + len(toroidal_groups) + len(stream_items),
        n_pairs=len({(id(r.fs1), id(r.fs2)) for r in requests}),
        n_functions=len({id(fs) for r in requests for fs in (r.fs1, r.fs2)}),
    ):
        for items in rotation_groups.values():
            _run_rotation_group(
                requests, items, n_permutations, alternative, mode, results
            )
        for idxs in toroidal_groups.values():
            _run_toroidal_group(
                requests, idxs, n_permutations, alternative, mode, alpha, results
            )
        for idx, method in stream_items:
            results[idx] = _run_stream(
                requests[idx], method, n_permutations, alternative, mode, alpha
            )
    return results  # type: ignore[return-value]


def _distinct_features(
    reqs: list[SignificanceRequest],
) -> tuple[list[FeatureSet], list[int], list[int]]:
    """The distinct feature sets of ``reqs`` (by identity) and, per request,
    where its two sides sit among them."""
    slots: dict[int, int] = {}
    distinct: list[FeatureSet] = []
    sides: tuple[list[int], list[int]] = ([], [])
    for request in reqs:
        for side, fs in zip(sides, (request.fs1, request.fs2)):
            slot = slots.get(id(fs))
            if slot is None:
                slot = slots[id(fs)] = len(distinct)
                distinct.append(fs)
            side.append(slot)
    return distinct, *sides


def _signed(fs: FeatureSet, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``D = P − N`` and ``U = P ∨ N`` of one feature set, as ``dtype``."""
    positive = fs.positive.view(np.int8)
    negative = fs.negative.view(np.int8)
    return (positive - negative).astype(dtype), (positive | negative).astype(dtype)


def _run_rotation_group(
    requests: list[SignificanceRequest],
    items: list[tuple[int, str]],
    n_permutations: int,
    alternative: str,
    mode: str,
    results: list[SignificanceResult | None],
) -> None:
    """Rotation scores of all pairs sharing one domain shape.

    One real FFT per distinct signed mask and union mask; per pair the two
    circular cross-correlations ``D1 ⋆ D2`` and ``U1 ⋆ U2`` are one spectrum
    product each, summed over regions before the single inverse transform
    (the transform is linear) and rounded back to the exact integers.
    Rotations already evaluate every shift in a single pass, so adaptive
    mode has nothing to truncate here: all three modes agree bit-for-bit.
    """
    reqs = [requests[idx] for idx, _ in items]
    n_steps, n_regions = reqs[0].fs1.shape
    observed = np.array([_request_observed(r) for r in reqs])

    def emit(j: int, p_value: float, n_run: int) -> None:
        idx, label = items[j]
        results[idx] = SignificanceResult(
            p_value=p_value,
            observed_score=float(observed[j]),
            n_permutations=n_run,
            method=label,
            alternative=alternative,
            mode=mode,
        )

    if n_steps < 2:
        empty = np.zeros(0)
        for j in range(len(reqs)):
            emit(j, _p_value(float(observed[j]), empty, alternative), 0)
        return

    distinct, side1, side2 = _distinct_features(reqs)
    # (function, D|U, frequency, region)
    spectrum = np.fft.rfft(
        np.array([_signed(fs, np.float64) for fs in distinct]), axis=2
    )
    first, second = np.array(side1), np.array(side2)
    tau = np.empty((len(reqs), n_steps))
    slab = max(1, _SLAB_ELEMENTS // (2 * spectrum.shape[2] * n_regions))
    for lo in range(0, len(reqs), slab):
        product = spectrum[first[lo : lo + slab]] * np.conj(
            spectrum[second[lo : lo + slab]]
        )
        counts = np.rint(np.fft.irfft(product.sum(axis=3), n=n_steps, axis=2))
        numerator, sigma = counts[:, 0], counts[:, 1]
        tau[lo : lo + slab] = np.where(
            sigma > 0, numerator / np.maximum(sigma, 1), 0.0
        )
    tau = tau[:, 1:]  # k = 0 is the observed configuration

    n_shifts = n_steps - 1
    if n_shifts <= n_permutations:  # the whole population: no draw, no loop
        hits = _hits_against(observed, tau, alternative)
        for j in range(len(reqs)):
            emit(j, float((1 + hits[j]) / (n_shifts + 1)), n_shifts)
        return
    for j, request in enumerate(reqs):
        rng = ensure_rng(request.seed)
        chosen = rng.choice(n_shifts, size=n_permutations, replace=False)
        emit(
            j,
            _p_value(float(observed[j]), tau[j, chosen], alternative),
            n_permutations,
        )


def _cooccurrence_table(reqs: list[SignificanceRequest], dtype: type) -> np.ndarray:
    """Numerator and denominator matrices of every pair, as columns.

    Column ``j`` is pair j's ``D1ᵀ·D2`` and column ``len(reqs) + j`` its
    ``U1ᵀ·U2``, both raveled, so row ``s · R + r`` holds what a shift that
    sends region ``r`` to ``s`` contributes for ``r``.
    """
    n_pairs = len(reqs)
    n_regions = reqs[0].fs1.shape[1]
    cells = n_regions * n_regions
    distinct, side1, side2 = _distinct_features(reqs)
    signed = [_signed(fs, dtype) for fs in distinct]
    table = np.empty((cells, 2 * n_pairs), dtype=dtype)
    slab = min(n_pairs, max(1, _SLAB_ELEMENTS // (2 * cells)))
    products = np.empty((2, slab, n_regions, n_regions), dtype=dtype)
    for lo in range(0, n_pairs, slab):
        hi = min(lo + slab, n_pairs)
        for j in range(lo, hi):
            one, two = signed[side1[j]], signed[side2[j]]
            np.dot(one[0].T, two[0], out=products[0, j - lo])
            np.dot(one[1].T, two[1], out=products[1, j - lo])
        raveled = products[:, : hi - lo].reshape(2, hi - lo, cells)
        table[:, lo:hi] = raveled[0].T
        table[:, n_pairs + lo : n_pairs + hi] = raveled[1].T
    return table


def _run_toroidal_group(
    requests: list[SignificanceRequest],
    idxs: list[int],
    n_permutations: int,
    alternative: str,
    mode: str,
    alpha: float,
    results: list[SignificanceResult | None],
) -> None:
    """Batched toroidal-shift scores for pairs sharing one region graph.

    Per pair the numerator matrix is ``D1ᵀ·D2`` and the denominator matrix
    ``U1ᵀ·U2`` (see *Signed kernels* in the module docstring); both are
    kept as columns of one table indexed by ``r_image · R + r``, so a span
    of shifts is one row gather through ``maps · R + r`` and one sum over
    the regions for the whole group.  Adaptive mode drops decided pairs'
    columns between spans; a family's first ``n`` maps are the same for any
    requested count, so every pair consumes the identical permutation
    stream exact mode would.
    """
    reqs = [requests[i] for i in idxs]
    # A family is a function of the group's region graph: one request's
    # hand-over stands for the group.
    maps = reqs[0].maps
    if maps is None:
        maps = domain_toroidal_maps(reqs[0].graph, n_permutations)
    elif len(maps) < n_permutations:
        raise DataError(
            f"handed-over family holds {len(maps)} shifts, {n_permutations} requested"
        )
    n_steps, n_regions = reqs[0].fs1.shape
    n_pairs = len(reqs)
    dtype = np.float32 if n_steps * n_regions < _FLOAT32_EXACT else np.float64
    table = _cooccurrence_table(reqs, dtype)

    image_cells = maps[:n_permutations] * n_regions + np.arange(n_regions)
    observed = np.array([_request_observed(r) for r in reqs])
    hits = np.zeros(n_pairs, dtype=np.int64)
    done = np.zeros(n_pairs, dtype=np.int64)
    alive = np.arange(n_pairs)
    spans = (
        _adaptive_spans(n_permutations)
        if mode == "adaptive"
        else [(0, n_permutations)]
    )
    for lo, hi in spans:
        if alive.size == 0:
            break
        sums = np.empty((hi - lo, 2 * alive.size), dtype=dtype)
        slab = max(1, _SLAB_ELEMENTS // (n_regions * 2 * alive.size))
        for row in range(lo, hi, slab):
            stop = min(row + slab, hi)
            gathered = table.take(image_cells[row:stop].ravel(), axis=0)
            gathered.reshape(stop - row, n_regions, -1).sum(
                axis=1, out=sums[row - lo : stop - lo]
            )
        sums = sums.astype(np.float64, copy=False)
        numerator, sigma = sums[:, : alive.size], sums[:, alive.size :]
        scores = np.where(sigma > 0, numerator / np.maximum(sigma, 1), 0.0)
        hits[alive] += _hits_against(observed[alive], scores.T, alternative)
        done[alive] = hi
        if mode == "adaptive" and hi < n_permutations:
            keep = ~_decided(hits[alive], hi, n_permutations, alpha)
            if not keep.all():
                alive = alive[keep]
                table = table[:, np.tile(keep, 2)]

    for j, idx in enumerate(idxs):
        p = float((1 + hits[j]) / (done[j] + 1))
        results[idx] = SignificanceResult(
            p_value=p,
            observed_score=float(observed[j]),
            n_permutations=int(done[j]),
            method="spatial_toroidal",
            alternative=alternative,
            mode=mode,
        )


def _run_stream(
    request: SignificanceRequest,
    method: str,
    n_permutations: int,
    alternative: str,
    mode: str,
    alpha: float,
) -> SignificanceResult:
    """Span-at-a-time evaluation for the per-pair RNG-stream methods.

    The torus3 and naive randomizations consume a per-pair RNG stream, so
    they cannot stack across pairs; they still vectorize within each span
    and support adaptive early termination.  RNG draws happen span by span
    in exact mode's order, so the first k randomizations match exact
    mode's first k.
    """
    observed = _request_observed(request)
    rng = ensure_rng(request.seed)
    if method == "spatiotemporal_torus":
        span_scores = _torus3_span_scores(request, n_permutations, rng)
    else:
        span_scores = _naive_span_scores(request, rng)
    spans = (
        _adaptive_spans(n_permutations)
        if mode == "adaptive"
        else [(0, n_permutations)]
    )
    hits = 0
    done = 0
    for lo, hi in spans:
        hits += _count_hits(observed, span_scores(lo, hi), alternative)
        done = hi
        if (
            mode == "adaptive"
            and done < n_permutations
            and bool(_decided(np.int64(hits), done, n_permutations, alpha))
        ):
            break
    return SignificanceResult(
        p_value=float((1 + hits) / (done + 1)),
        observed_score=observed,
        n_permutations=done,
        method=method,
        alternative=alternative,
        mode=mode,
    )


def _torus3_span_scores(
    request: SignificanceRequest, n_permutations: int, rng: np.random.Generator
):
    """Vectorized spans of :func:`_torus3_scores` randomizations."""
    n_steps, _ = request.fs1.shape
    maps = domain_toroidal_maps(request.graph, n_permutations)
    fs1, fs2 = request.fs1, request.fs2
    p1, n1, u1 = fs1.positive, fs1.negative, fs1.union()
    p2, n2, u2 = fs2.positive, fs2.negative, fs2.union()
    t_idx = np.arange(n_steps)

    def span(lo: int, hi: int) -> np.ndarray:
        ks = np.array(
            [
                int(rng.integers(1, n_steps)) if n_steps > 1 else 0
                for _ in range(hi - lo)
            ]
        )
        rows = (t_idx[None, :] - ks[:, None]) % n_steps
        cols = maps[lo:hi]
        p1c = p1[:, cols].transpose(1, 0, 2)
        n1c = n1[:, cols].transpose(1, 0, 2)
        u1c = u1[:, cols].transpose(1, 0, 2)
        pp = np.count_nonzero(p1c & p2[rows], axis=(1, 2))
        nn = np.count_nonzero(n1c & n2[rows], axis=(1, 2))
        pn = np.count_nonzero(p1c & n2[rows], axis=(1, 2))
        np_ = np.count_nonzero(n1c & p2[rows], axis=(1, 2))
        sig = np.count_nonzero(u1c & u2[rows], axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sig > 0, (pp + nn - pn - np_) / np.maximum(sig, 1), 0.0)

    return span


def _naive_span_scores(request: SignificanceRequest, rng: np.random.Generator):
    """Vectorized spans of :func:`_naive_scores` randomizations."""
    fs1, fs2 = request.fs1, request.fs2
    size = fs1.shape[0] * fs1.shape[1]
    p1 = fs1.positive.ravel()
    n1 = fs1.negative.ravel()
    u1 = p1 | n1
    p2 = fs2.positive.ravel()
    n2 = fs2.negative.ravel()
    u2 = p2 | n2

    def span(lo: int, hi: int) -> np.ndarray:
        perms = np.stack([rng.permutation(size) for _ in range(hi - lo)])
        pp = np.count_nonzero(p1[None, :] & p2[perms], axis=1)
        nn = np.count_nonzero(n1[None, :] & n2[perms], axis=1)
        pn = np.count_nonzero(p1[None, :] & n2[perms], axis=1)
        np_ = np.count_nonzero(n1[None, :] & p2[perms], axis=1)
        sig = np.count_nonzero(u1[None, :] & u2[perms], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sig > 0, (pp + nn - pn - np_) / np.maximum(sig, 1), 0.0)

    return span
