"""Feature identification: level-set queries and the feature pipeline (§3.2).

Positive features of a function are its super-level set at θ⁺; negative
features its sub-level set at θ⁻ (§2.1).  Given the merge trees, features are
computed output-sensitively: the traversal starts from the valid extrema
(function value beyond the threshold) and only ever touches level-set
vertices plus their immediate boundary.

:class:`FeatureExtractor` runs the full §3.3 pipeline for one scalar
function: seasonal-interval segmentation, per-interval merge trees and
salient thresholds, pooled extreme thresholds, and the resulting salient and
extreme :class:`FeatureSet` masks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..temporal.intervals import interval_slices, seasonal_interval_ids
from ..utils.bitvector import BitVector
from ..utils.errors import DataError
from .merge_tree import MergeTree, compute_join_tree, compute_split_tree
from .scalar_function import ScalarFunction
from .thresholds import SalientThresholds, extreme_thresholds, salient_thresholds


@dataclass
class FeatureSet:
    """Positive and negative features of one function as boolean masks.

    Masks have shape ``(n_steps, n_regions)``; entry ``[z, x]`` is True iff
    the spatio-temporal point (region x, step z) is a feature.  The masks are
    the dense form of the bit vectors of Appendix C (:meth:`to_bitvectors`
    produces the packed form used for space accounting).
    """

    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self) -> None:
        self.positive = np.asarray(self.positive, dtype=bool)
        self.negative = np.asarray(self.negative, dtype=bool)
        if self.positive.shape != self.negative.shape:
            raise DataError("positive/negative feature masks must align")

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_steps, n_regions)``."""
        return self.positive.shape  # type: ignore[return-value]

    def union(self) -> np.ndarray:
        """Mask of all features (Σ_i = positive ∪ negative)."""
        return self.positive | self.negative

    def n_features(self) -> int:
        """|Σ_i| — number of feature points."""
        return int(np.count_nonzero(self.union()))

    def slice_steps(self, start: int, stop: int) -> "FeatureSet":
        """Restrict to time-step positions ``[start, stop)``.

        Used to align two functions on their overlapping time range before
        relationship evaluation.
        """
        return FeatureSet(self.positive[start:stop], self.negative[start:stop])

    def to_bitvectors(self) -> tuple[BitVector, BitVector]:
        """Packed bit-vector form (Appendix C storage representation)."""
        return (
            BitVector.from_bools(self.positive.ravel()),
            BitVector.from_bools(self.negative.ravel()),
        )

    @classmethod
    def empty(cls, n_steps: int, n_regions: int) -> "FeatureSet":
        """A feature set with no features."""
        return cls(
            np.zeros((n_steps, n_regions), dtype=bool),
            np.zeros((n_steps, n_regions), dtype=bool),
        )


# ---------------------------------------------------------------------------
# Level-set queries
# ---------------------------------------------------------------------------


def superlevel_mask(function: ScalarFunction, theta: float) -> np.ndarray:
    """Brute-force super-level set ``f ≥ θ`` (flat boolean mask)."""
    return function.flat_values() >= theta


def sublevel_mask(function: ScalarFunction, theta: float) -> np.ndarray:
    """Brute-force sub-level set ``f ≤ θ`` (flat boolean mask)."""
    return function.flat_values() <= theta


def query_superlevel(
    function: ScalarFunction, theta: float, tree: MergeTree
) -> np.ndarray:
    """Output-sensitive super-level set query via the join tree (§3.2).

    Seeds the traversal at maxima with value ≥ θ (read off the join tree's
    sorted leaves) and explores level-set vertices breadth-first.  Every
    super-level component contains at least one such maximum, so the
    traversal covers the whole set while touching only its vertices and
    their immediate boundary.
    """
    if tree.kind != "join":
        raise DataError("query_superlevel requires a join tree")
    return _levelset_traversal(function, tree, theta, positive=True)


def query_sublevel(
    function: ScalarFunction, theta: float, tree: MergeTree
) -> np.ndarray:
    """Output-sensitive sub-level set query via the split tree (§3.2)."""
    if tree.kind != "split":
        raise DataError("query_sublevel requires a split tree")
    return _levelset_traversal(function, tree, theta, positive=False)


def _levelset_traversal(
    function: ScalarFunction, tree: MergeTree, theta: float, positive: bool
) -> np.ndarray:
    values = function.flat_values()
    graph = function.graph
    inside = np.zeros(values.size, dtype=bool)
    if positive:
        seeds = tree.extrema[values[tree.extrema] >= theta]
    else:
        seeds = tree.extrema[values[tree.extrema] <= theta]
    queue: deque[int] = deque(int(s) for s in seeds)
    inside[seeds] = True
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            u = int(u)
            if inside[u]:
                continue
            if (positive and values[u] >= theta) or (
                not positive and values[u] <= theta
            ):
                inside[u] = True
                queue.append(u)
    return inside


# ---------------------------------------------------------------------------
# Full per-function feature pipeline
# ---------------------------------------------------------------------------


@dataclass
class IntervalReport:
    """Diagnostics for one seasonal interval of one function."""

    step_start: int
    step_stop: int
    thresholds: SalientThresholds
    n_maxima: int
    n_minima: int


@dataclass
class FunctionFeatures:
    """Everything the framework precomputes per scalar function (§5.2).

    ``salient`` and ``extreme`` are the two feature channels evaluated by the
    relationship operator.  ``extreme_theta_pos``/``neg`` record the global
    box-plot fences (``None`` when undefined), and ``intervals`` the
    per-interval salient thresholds.
    """

    function_id: str
    salient: FeatureSet
    extreme: FeatureSet
    extreme_theta_pos: float | None
    extreme_theta_neg: float | None
    intervals: list[IntervalReport] = field(default_factory=list)

    def nbytes(self) -> int:
        """Packed storage footprint of the four feature bit vectors."""
        sp, sn = self.salient.to_bitvectors()
        ep, en = self.extreme.to_bitvectors()
        return sp.nbytes() + sn.nbytes() + ep.nbytes() + en.nbytes()


class FeatureExtractor:
    """Computes salient and extreme features of scalar functions (§3.3, §5.2).

    Parameters
    ----------
    seasonal:
        Apply seasonal-interval segmentation (monthly intervals for hourly
        functions, quarterly for daily ones).  Disable to compute one global
        threshold pair — used by ablation benchmarks.
    use_index:
        Use the output-sensitive merge-tree traversal for level-set queries
        (the paper's index path).  When False, features are computed by the
        brute-force vectorized masks — same result, different cost model.
    extreme_fence:
        The ``k`` of the box-plot rule ``Q1/Q3 ∓ k * IQR``.
    max_feature_fraction:
        Degenerate-threshold guard.  Features are by definition regions that
        deviate from *normal* behaviour (§2.1); for zero-inflated functions
        (e.g. precipitation, which is zero most of the time) the data-driven
        θ⁻ lands on the flat baseline and the sub-level set covers most of
        the domain — normal behaviour, not features.  If one side's feature
        mask covers more than this fraction of an interval, that side is
        dropped for the interval.  Set to 1.0 to disable the guard and follow
        the paper's formulas verbatim.
    """

    def __init__(
        self,
        seasonal: bool = True,
        use_index: bool = False,
        extreme_fence: float = 1.5,
        max_feature_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < max_feature_fraction <= 1.0:
            raise DataError("max_feature_fraction must be within (0, 1]")
        self.seasonal = seasonal
        self.use_index = use_index
        self.extreme_fence = extreme_fence
        self.max_feature_fraction = max_feature_fraction

    def extract(self, function: ScalarFunction) -> FunctionFeatures:
        """Run the full pipeline for one function."""
        n_steps, n_regions = function.n_steps, function.n_regions
        salient_pos = np.zeros((n_steps, n_regions), dtype=bool)
        salient_neg = np.zeros((n_steps, n_regions), dtype=bool)
        pooled_max: list[np.ndarray] = []
        pooled_min: list[np.ndarray] = []
        reports: list[IntervalReport] = []

        for positions in self._intervals(function):
            sliced = function.slice_steps(positions)
            flat = sliced.flat_values()
            # The ascending order is the descending one reversed (both keys
            # are mirrored and the order is total): one sort serves both.
            descending = sliced.vertex_order(True)
            join = compute_join_tree(sliced.graph, flat, descending)
            split = compute_split_tree(sliced.graph, flat, descending[::-1])
            thresholds = salient_thresholds(join, split)
            pooled_max.append(thresholds.salient_max_values)
            pooled_min.append(thresholds.salient_min_values)
            start, stop = int(positions[0]), int(positions[-1]) + 1
            reports.append(
                IntervalReport(
                    step_start=start,
                    step_stop=stop,
                    thresholds=thresholds,
                    n_maxima=join.n_extrema,
                    n_minima=split.n_extrema,
                )
            )
            max_cells = self.max_feature_fraction * sliced.n_vertices
            if thresholds.theta_pos is not None:
                mask = self._positive_mask(sliced, thresholds.theta_pos, join)
                if mask.sum() <= max_cells:
                    salient_pos[start:stop] = mask.reshape(stop - start, n_regions)
            if thresholds.theta_neg is not None:
                mask = self._negative_mask(sliced, thresholds.theta_neg, split)
                if mask.sum() <= max_cells:
                    salient_neg[start:stop] = mask.reshape(stop - start, n_regions)

        theta_epos, theta_eneg = extreme_thresholds(
            np.concatenate(pooled_max) if pooled_max else np.zeros(0),
            np.concatenate(pooled_min) if pooled_min else np.zeros(0),
            k=self.extreme_fence,
        )
        max_cells = self.max_feature_fraction * function.n_vertices
        extreme_pos = (
            (function.values >= theta_epos)
            if theta_epos is not None
            else np.zeros((n_steps, n_regions), dtype=bool)
        )
        if extreme_pos.sum() > max_cells:
            extreme_pos = np.zeros((n_steps, n_regions), dtype=bool)
        extreme_neg = (
            (function.values <= theta_eneg)
            if theta_eneg is not None
            else np.zeros((n_steps, n_regions), dtype=bool)
        )
        if extreme_neg.sum() > max_cells:
            extreme_neg = np.zeros((n_steps, n_regions), dtype=bool)

        return FunctionFeatures(
            function_id=function.function_id,
            salient=FeatureSet(salient_pos, salient_neg),
            extreme=FeatureSet(extreme_pos, extreme_neg),
            extreme_theta_pos=theta_epos,
            extreme_theta_neg=theta_eneg,
            intervals=reports,
        )

    def extract_with_thresholds(
        self,
        function: ScalarFunction,
        theta_pos: float | None,
        theta_neg: float | None,
    ) -> FeatureSet:
        """Features for user-supplied thresholds (§5.3 clause path)."""
        n_steps, n_regions = function.n_steps, function.n_regions
        pos = (
            (function.values >= theta_pos)
            if theta_pos is not None
            else np.zeros((n_steps, n_regions), dtype=bool)
        )
        neg = (
            (function.values <= theta_neg)
            if theta_neg is not None
            else np.zeros((n_steps, n_regions), dtype=bool)
        )
        return FeatureSet(pos, neg)

    # -- internals -----------------------------------------------------------

    def _intervals(self, function: ScalarFunction) -> list[np.ndarray]:
        if not self.seasonal:
            return [np.arange(function.n_steps)]
        labels = seasonal_interval_ids(function.temporal, function.graph.step_labels)
        return interval_slices(labels)

    def _positive_mask(
        self, sliced: ScalarFunction, theta: float, join: MergeTree
    ) -> np.ndarray:
        if self.use_index:
            return query_superlevel(sliced, theta, join)
        return superlevel_mask(sliced, theta)

    def _negative_mask(
        self, sliced: ScalarFunction, theta: float, split: MergeTree
    ) -> np.ndarray:
        if self.use_index:
            return query_sublevel(sliced, theta, split)
        return sublevel_mask(sliced, theta)
