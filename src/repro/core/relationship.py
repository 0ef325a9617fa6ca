"""Relationship score τ and strength ρ between two feature sets (§2.2, §2.3).

Two functions are *feature-related* at a spatio-temporal point x iff x is a
feature of both (x ∈ Σ = Σ₁ ∩ Σ₂).  A related point is *positively* related
when the feature signs agree (both positive or both negative) and
*negatively* related when they disagree.  The score is

    τ = (#p − #n) / |Σ|  ∈ [−1, 1],

and the strength ρ is the F1 score of treating Σ₁ as a predictor of Σ₂
(precision = |Σ|/|Σ₁|, recall = |Σ|/|Σ₂|).

Scoring many pairs at once (:func:`count_table`, the query path).  Every
quantity above is the size of an intersection of point sets, i.e. the dot
product of their 0/1 indicator vectors.  So for one resolution and feature
channel the masks of the participating functions are stacked as indicator
matrices P (positive), N (negative), U = P ∨ N and B = P ∧ N, and every
pair's counts are read off products of the row functions' matrices with the
column functions':

    |Σ| = U₁·U₂ᵀ    #p = P₁·P₂ᵀ + N₁·N₂ᵀ − B₁·B₂ᵀ    #n = P₁·N₂ᵀ + N₁·P₂ᵀ − B₁·B₂ᵀ

* *Blocks of the step axis replace overlap slicing.*  The step-label axis
  is cut at every function's first and one-past-last label.  Within one
  piece a function is present on every step or on none, so the functions
  present stack without slicing per pair and without padding, and a pair's
  counts on its overlap are the sums of its counts on the pieces inside it
  (|Σ₁|, |Σ₂| and the overlap length included: per piece they are one side's
  row sums broadcast over the other's functions).  A piece one side is
  absent from holds no pair and is skipped, so time and memory follow the
  overlaps — not the hull of the ranges, which a data set of another decade
  would stretch — and pieces are cut further to keep the transient stack
  under ``_BLOCK_ENTRIES`` matrix entries.  (Zero-padding every function
  onto the hull is also exact, an intersection with an absent point being
  empty, but pays for the gaps.)
* *B·Bᵀ is the only correction.*  #p is the size of the union of P₁∧P₂ and
  N₁∧N₂ (Definition 10 is a disjunction): their sizes minus that of their
  intersection B₁∧B₂.  #n swaps the second function's signs, and
  (P₁∧N₂)∧(N₁∧P₂) is B₁∧B₂ again.  B is empty unless degenerate thresholds
  make a point both a positive and a negative feature of one function; the
  product is skipped then.
* *Exactness.*  Every entry is a sum of at most steps × regions zeros and
  ones: exact in float32 below 2²⁴ whatever order BLAS adds in, in float64
  beyond; pieces are added as int64.  They are the integers
  ``score_from_masks`` counts, and :func:`measures_from_counts` derives τ,
  ρ, precision and recall from them by the same expressions — bit-identical,
  not approximately equal.
* *Cost.*  O(F₁·F₂·T·R) multiply-adds inside BLAS for F₁ × F₂ function
  pairs overlapping on T steps of R regions, O(F·T·R) to stack; nothing
  interpreted per pair.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..stats.fscore import f1_from_counts
from ..utils.errors import DataError
from .features import FeatureSet

#: Sums of zeros and ones stay exact in float32 below this many terms.
_FLOAT32_EXACT = 2**24

#: Most entries of one stacked indicator matrix (rows' plus columns'); the
#: transient stack is 13 bytes per entry in float32.
_BLOCK_ENTRIES = 2**21


@dataclass(frozen=True)
class RelationshipMeasures:
    """All quantities derived from one pair of feature sets.

    ``score`` is 0 when the functions share no feature point (|Σ| = 0); such
    pairs are reported as unrelated by the operator rather than undefined.
    """

    score: float
    strength: float
    n_related: int
    n_positive: int
    n_negative: int
    n_features_1: int
    n_features_2: int
    precision: float
    recall: float

    @property
    def is_related(self) -> bool:
        """True iff the functions share at least one feature point."""
        return self.n_related > 0


def measures_from_counts(
    n_related: int,
    n_positive: int,
    n_negative: int,
    n_features_1: int,
    n_features_2: int,
) -> RelationshipMeasures:
    """(τ, ρ, precision, recall) from the five set cardinalities.

    The one place the floating-point measures are computed, so the per-pair
    and the table path agree to the bit.  Takes Python ints.
    """
    score = (n_positive - n_negative) / n_related if n_related else 0.0
    f1 = f1_from_counts(n_related, n_features_1, n_features_2)
    return RelationshipMeasures(
        score=score,
        strength=f1.f1,
        n_related=n_related,
        n_positive=n_positive,
        n_negative=n_negative,
        n_features_1=n_features_1,
        n_features_2=n_features_2,
        precision=f1.precision,
        recall=f1.recall,
    )


def score_from_masks(
    pos1: np.ndarray,
    neg1: np.ndarray,
    pos2: np.ndarray,
    neg2: np.ndarray,
) -> RelationshipMeasures:
    """Compute (τ, ρ, counts) from four aligned boolean feature masks.

    Each point contributes at most once to #p (Definition 10 is a
    disjunction) and at most once to #n (Definition 11), so τ is always in
    [−1, 1] even in the degenerate case where a point is simultaneously a
    positive and a negative feature of the same function.
    """
    if pos1.shape != pos2.shape:
        raise DataError(f"feature masks must align, got {pos1.shape} vs {pos2.shape}")
    union1 = pos1 | neg1
    union2 = pos2 | neg2
    return measures_from_counts(
        int(np.count_nonzero(union1 & union2)),
        int(np.count_nonzero((pos1 & pos2) | (neg1 & neg2))),
        int(np.count_nonzero((pos1 & neg2) | (neg1 & pos2))),
        int(np.count_nonzero(union1)),
        int(np.count_nonzero(union2)),
    )


def evaluate_features(fs1: FeatureSet, fs2: FeatureSet) -> RelationshipMeasures:
    """Relationship measures between two functions' feature sets."""
    return score_from_masks(fs1.positive, fs1.negative, fs2.positive, fs2.negative)


def _indicators(
    side: Sequence[tuple[int, FeatureSet]], lo: int, hi: int, dtype: type
) -> tuple[np.ndarray, ...]:
    """``P, N, U, B`` of functions that all cover the step labels
    ``[lo, hi)``, on those labels, as ``(F, T·R)`` matrices (B boolean)."""

    def stacked(masks: list[np.ndarray]) -> np.ndarray:
        windows = [m[lo - at : hi - at].ravel() for (at, _), m in zip(side, masks)]
        return np.array(windows, dtype)

    positive = stacked([fs.positive for _, fs in side])
    negative = stacked([fs.negative for _, fs in side])
    return (
        positive,
        negative,
        np.maximum(positive, negative),
        np.logical_and(positive, negative),
    )


def count_table(
    rows: Sequence[tuple[int, FeatureSet]], cols: Sequence[tuple[int, FeatureSet]]
) -> np.ndarray:
    """The set cardinalities of every (row function, column function) pair.

    ``rows`` and ``cols`` list ``(first step label, feature set)`` per
    function, all over the same regions and with consecutive step labels.
    Returns an int64 array of shape ``(6, len(rows), len(cols))``: entries
    ``[:5, i, j]`` are :func:`measures_from_counts`' arguments for row
    function ``i`` against column function ``j`` on their overlapping step
    range — exactly what :func:`score_from_masks` counts on the two masks
    sliced to that range — and ``[5, i, j]`` is the number of overlapping
    steps (0: the pair is not evaluated at all).  See the module docstring
    for the argument.
    """
    table = np.zeros((6, len(rows), len(cols)), dtype=np.int64)
    if not rows or not cols:
        return table
    regions = {fs.shape[1] for _, fs in [*rows, *cols]}
    if len(regions) != 1:
        raise DataError(
            f"feature masks must align, got region counts {sorted(regions)}"
        )
    n_regions = regions.pop()
    spans1 = np.array([(at, at + fs.shape[0]) for at, fs in rows])
    spans2 = np.array([(at, at + fs.shape[0]) for at, fs in cols])
    cuts = np.unique(np.concatenate([spans1, spans2], axis=None)).tolist()
    for first, last in zip(cuts, cuts[1:]):
        in1 = np.flatnonzero((spans1[:, 0] <= first) & (last <= spans1[:, 1]))
        in2 = np.flatnonzero((spans2[:, 0] <= first) & (last <= spans2[:, 1]))
        if not (in1.size and in2.size):
            continue
        present1, present2 = [rows[i] for i in in1], [cols[j] for j in in2]
        stride = max(1, _BLOCK_ENTRIES // ((in1.size + in2.size) * n_regions))
        for lo in range(first, last, stride):
            hi = min(lo + stride, last)
            exact = (hi - lo) * n_regions < _FLOAT32_EXACT
            dtype = np.float32 if exact else np.float64
            pos1, neg1, union1, both1 = _indicators(present1, lo, hi, dtype)
            pos2, neg2, union2, both2 = _indicators(present2, lo, hi, dtype)
            counts = np.empty((6, in1.size, in2.size), dtype=np.int64)
            counts[0] = union1 @ union2.T
            counts[1] = pos1 @ pos2.T + neg1 @ neg2.T
            counts[2] = pos1 @ neg2.T + neg1 @ pos2.T
            if both1.any() and both2.any():
                twice = both1.astype(dtype) @ both2.astype(dtype).T
                counts[1:3] -= twice.astype(np.int64)
            counts[3] = union1.sum(axis=1)[:, None]
            counts[4] = union2.sum(axis=1)
            counts[5] = hi - lo
            table[:, in1[:, None], in2] += counts
    return table
