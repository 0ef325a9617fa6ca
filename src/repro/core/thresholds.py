"""Data-driven feature thresholds (§3.3).

Salient thresholds: the persistence values of the extrema of a function split
into a high- and a low-persistence group (k-means, k=2, computed exactly for
1-D by :func:`repro.stats.two_means`).  The salient threshold is chosen so
that every high-persistence extremum becomes a feature:

* θ⁻ = the *highest* function value over minima in the high-persistence
  cluster (all of them satisfy ``f ≤ θ⁻``),
* θ⁺ = the *lowest* function value over maxima in the high-persistence
  cluster (all of them satisfy ``f ≥ θ⁺``).

Extreme thresholds: among the function values of all *salient* extrema pooled
across the full time range, outliers are detected by the standard box-plot
rule — ``Q1 - 1.5 IQR`` for minima, ``Q3 + 1.5 IQR`` for maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..stats.boxplot import boxplot_stats
from ..stats.kmeans import two_means
from .merge_tree import MergeTree

#: Minimum number of pooled salient extrema required before the box-plot
#: outlier rule is considered meaningful; below this no extreme threshold is
#: produced (quartiles of 2-3 points are arbitrary).
MIN_EXTREMA_FOR_EXTREME = 4


@dataclass(frozen=True)
class SalientThresholds:
    """Per-interval salient thresholds and the extrema that induced them.

    ``theta_pos``/``theta_neg`` are ``None`` when the interval has no maxima /
    minima at all (cannot happen for non-empty functions, but kept for
    safety).  ``salient_max_values``/``salient_min_values`` are the function
    values of the high-persistence extrema; the extreme-threshold computation
    pools them across intervals.
    """

    theta_pos: float | None
    theta_neg: float | None
    salient_max_values: np.ndarray
    salient_min_values: np.ndarray


def salient_cluster(persistence: np.ndarray) -> np.ndarray:
    """Boolean mask of the high-persistence cluster of ``persistence``.

    Rules (in order):

    * 0 values  -> empty mask,
    * 1 value   -> that extremum is salient,
    * all equal -> every extremum is salient (no meaningful split),
    * otherwise -> exact 1-D 2-means; the higher-center cluster is salient.
    """
    pers = np.asarray(persistence, dtype=np.float64)
    if pers.size == 0:
        return np.zeros(0, dtype=bool)
    if pers.size == 1:
        return np.ones(1, dtype=bool)
    if np.allclose(pers, pers[0]):
        return np.ones(pers.size, dtype=bool)
    result = two_means(pers)
    return result.labels == 1


def salient_thresholds(
    join_tree: MergeTree, split_tree: MergeTree
) -> SalientThresholds:
    """Salient θ⁺/θ⁻ for one seasonal interval from its merge trees."""
    max_mask = salient_cluster(join_tree.persistence)
    min_mask = salient_cluster(split_tree.persistence)

    max_values = join_tree.extremum_values()[max_mask]
    min_values = split_tree.extremum_values()[min_mask]

    theta_pos = float(max_values.min()) if max_values.size else None
    theta_neg = float(min_values.max()) if min_values.size else None
    return SalientThresholds(
        theta_pos=theta_pos,
        theta_neg=theta_neg,
        salient_max_values=max_values,
        salient_min_values=min_values,
    )


def extreme_thresholds(
    salient_max_values: np.ndarray,
    salient_min_values: np.ndarray,
    k: float = 1.5,
) -> tuple[float | None, float | None]:
    """Box-plot outlier fences over pooled salient extremum values.

    Returns ``(theta_extreme_pos, theta_extreme_neg)``; either side is
    ``None`` when fewer than :data:`MIN_EXTREMA_FOR_EXTREME` salient extrema
    were pooled for it.
    """
    theta_pos: float | None = None
    theta_neg: float | None = None
    max_vals = np.asarray(salient_max_values, dtype=np.float64).ravel()
    min_vals = np.asarray(salient_min_values, dtype=np.float64).ravel()
    if max_vals.size >= MIN_EXTREMA_FOR_EXTREME:
        theta_pos = boxplot_stats(max_vals).upper_fence(k)
    if min_vals.size >= MIN_EXTREMA_FOR_EXTREME:
        theta_neg = boxplot_stats(min_vals).lower_fence(k)
    return theta_pos, theta_neg
