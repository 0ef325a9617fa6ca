"""The relationship operator ``relation(D1, D2)`` (§4, §5.3).

Given two indexed data sets, the operator evaluates every pair of their
scalar functions at every common spatio-temporal resolution (finest first),
for both the salient and the extreme feature channels, and returns the
statistically significant relationships with their score and strength.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..graph.domain_graph import DomainGraph
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.errors import DataError
from ..utils.rng import RngLike, ensure_rng
from .clause import Clause
from .features import FeatureExtractor, FeatureSet, FunctionFeatures
from .relationship import evaluate_features
from .scalar_function import ScalarFunction
from .significance import (
    SIGNIFICANCE_MODES,
    SignificanceRequest,
    significance_batch,
    significance_test,
)

#: Pair tasks batched per :func:`evaluate_pair_chunk` call.  Large enough to
#: amortize the stacked NumPy passes, small enough to keep map tasks granular.
SIGNIFICANCE_CHUNK_TASKS = 64


@dataclass
class IndexedFunction:
    """A scalar function with its precomputed features (one resolution)."""

    function: ScalarFunction
    features: FunctionFeatures

    @property
    def function_id(self) -> str:
        """The function's stable identifier."""
        return self.function.function_id

    def feature_set(self, feature_type: str) -> FeatureSet:
        """The salient or extreme channel."""
        if feature_type == "salient":
            return self.features.salient
        if feature_type == "extreme":
            return self.features.extreme
        raise DataError(f"unknown feature type {feature_type!r}")


@dataclass
class DatasetIndex:
    """All indexed functions of one data set, keyed by resolution pair."""

    dataset: str
    functions: dict[
        tuple[SpatialResolution, TemporalResolution], list[IndexedFunction]
    ] = field(default_factory=dict)

    def resolutions(
        self,
    ) -> list[tuple[SpatialResolution, TemporalResolution]]:
        """Materialized resolution pairs, finest first (spatial, temporal)."""
        return sorted(self.functions, key=lambda k: (k[0].rank, k[1].rank))

    @property
    def n_functions(self) -> int:
        """Scalar-function count at the native-most resolution."""
        if not self.functions:
            return 0
        return max(len(v) for v in self.functions.values())


@dataclass(frozen=True)
class RelationshipResult:
    """One statistically significant relationship (a row of the §6.3 tables)."""

    dataset1: str
    dataset2: str
    function1: str
    function2: str
    spatial: SpatialResolution
    temporal: TemporalResolution
    feature_type: str
    score: float
    strength: float
    p_value: float
    n_related: int
    precision: float
    recall: float

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.function1} ~ {self.function2} "
            f"[{self.temporal.value}, {self.spatial.value}; {self.feature_type}] "
            f"tau={self.score:+.2f} rho={self.strength:.2f} p={self.p_value:.3f}"
        )


@dataclass
class RelationReport:
    """Outcome of one ``relation(D1, D2)`` evaluation.

    ``results`` holds the significant relationships.  The counters feed the
    pruning experiment (Fig. 11): ``n_evaluated`` counts every (function
    pair, resolution, feature type) combination considered, ``n_candidates``
    those that were feature-related and passed the clause, and
    ``n_significant`` those that survived the Monte Carlo test.
    """

    dataset1: str
    dataset2: str
    results: list[RelationshipResult] = field(default_factory=list)
    n_evaluated: int = 0
    n_candidates: int = 0
    n_significant: int = 0

    def extend(self, other: "RelationReport") -> None:
        """Merge counters/results of another report (used by queries)."""
        self.results.extend(other.results)
        self.n_evaluated += other.n_evaluated
        self.n_candidates += other.n_candidates
        self.n_significant += other.n_significant


def _pair_seed(base: int, *tokens: str) -> int:
    """Deterministic per-pair RNG seed, independent of iteration order."""
    digest = zlib.crc32("|".join(tokens).encode())
    return (base * 1_000_003 + digest) % (2**63 - 1)


def _pair_rng(base: int, *tokens: str) -> np.random.Generator:
    """A fresh per-function-pair generator spawned via ``SeedSequence``.

    Every (function pair, resolution, feature type) combination gets its own
    independent stream derived from the deterministic pair seed — never a
    generator shared across tasks — so evaluations can run on any worker in
    any order and still produce bit-identical p-values.
    """
    return np.random.default_rng(np.random.SeedSequence(_pair_seed(base, *tokens)))


def _overlap_slices(
    f1: ScalarFunction, f2: ScalarFunction
) -> tuple[slice, slice] | None:
    """Aligned time-slices of the two functions' overlapping step labels."""
    l1 = f1.graph.step_labels
    l2 = f2.graph.step_labels
    first = max(int(l1[0]), int(l2[0]))
    last = min(int(l1[-1]), int(l2[-1]))
    if last < first:
        return None
    s1 = slice(first - int(l1[0]), last - int(l1[0]) + 1)
    s2 = slice(first - int(l2[0]), last - int(l2[0]) + 1)
    return s1, s2


@dataclass(frozen=True)
class PairTask:
    """One schedulable unit of a relationship query: a function pair.

    ``seq`` is the position of the task in the canonical serial evaluation
    order (common resolutions finest-first, then ``index1``'s functions, then
    ``index2``'s); reducers sort outcomes by it so parallel execution
    reassembles reports in exactly the serial order.
    """

    seq: int
    fn1: IndexedFunction
    fn2: IndexedFunction
    spatial: SpatialResolution
    temporal: TemporalResolution


@dataclass
class PairOutcome:
    """What evaluating one :class:`PairTask` contributed to the report."""

    seq: int
    n_evaluated: int = 0
    n_candidates: int = 0
    results: list[RelationshipResult] = field(default_factory=list)


def enumerate_pair_tasks(
    index1: DatasetIndex, index2: DatasetIndex, clause: Clause
) -> list[PairTask]:
    """All function-pair tasks of ``relation(index1, index2)``, serial order."""
    tasks: list[PairTask] = []
    common = [key for key in index1.resolutions() if key in set(index2.resolutions())]
    for key in common:
        spatial, temporal = key
        if not clause.admits_resolution(spatial, temporal):
            continue
        for fn1 in index1.functions[key]:
            for fn2 in index2.functions[key]:
                tasks.append(PairTask(len(tasks), fn1, fn2, spatial, temporal))
    return tasks


def evaluate_pair_task(
    task: PairTask,
    dataset1: str,
    dataset2: str,
    clause: Clause,
    n_permutations: int,
    alternative: str,
    base_seed: int,
    extractor: FeatureExtractor | None,
) -> PairOutcome:
    """Evaluate one function pair: feature comparison + significance test.

    Self-contained and side-effect free so it can run as a map task on any
    worker: the RNG is spawned per pair from ``base_seed`` (see
    :func:`_pair_rng`), never shared.
    """
    fn1, fn2, spatial, temporal = task.fn1, task.fn2, task.spatial, task.temporal
    outcome = PairOutcome(seq=task.seq)
    slices = _overlap_slices(fn1.function, fn2.function)
    if slices is None:
        return outcome
    s1, s2 = slices
    graph = fn1.function.graph.slice_steps(s1)
    for feature_type in clause.feature_types:
        outcome.n_evaluated += 1
        fs1 = _resolve_features(fn1, feature_type, clause, extractor)
        fs2 = _resolve_features(fn2, feature_type, clause, extractor)
        fs1 = fs1.slice_steps(s1.start, s1.stop)
        fs2 = fs2.slice_steps(s2.start, s2.stop)
        measures = evaluate_features(fs1, fs2)
        if not measures.is_related or not clause.admits_measures(measures):
            continue
        outcome.n_candidates += 1
        sig = significance_test(
            fs1,
            fs2,
            graph,
            n_permutations=n_permutations,
            alternative=alternative,
            seed=_pair_rng(
                base_seed,
                fn1.function_id,
                fn2.function_id,
                spatial.value,
                temporal.value,
                feature_type,
            ),
        )
        if not sig.is_significant(clause.alpha):
            continue
        outcome.results.append(
            RelationshipResult(
                dataset1=dataset1,
                dataset2=dataset2,
                function1=fn1.function_id,
                function2=fn2.function_id,
                spatial=spatial,
                temporal=temporal,
                feature_type=feature_type,
                score=measures.score,
                strength=measures.strength,
                p_value=sig.p_value,
                n_related=measures.n_related,
                precision=measures.precision,
                recall=measures.recall,
            )
        )
    return outcome


def evaluate_pair_chunk(
    tasks: list[PairTask],
    dataset1: str,
    dataset2: str,
    clause: Clause,
    n_permutations: int,
    alternative: str,
    base_seed: int,
    extractor: FeatureExtractor | None,
    significance_mode: str = "exact",
) -> list[PairOutcome]:
    """Evaluate a chunk of pair tasks with batched significance testing.

    The chunk is where the fast modes pay off: candidate pairs across all
    tasks are queued into one :func:`significance_batch` call (stacked FFT /
    co-occurrence passes instead of per-pair Python loops), and domain
    graphs are built once per (graph, overlap) instead of once per task.
    ``significance_mode="exact"`` simply delegates to
    :func:`evaluate_pair_task` per task, so the reference path stays
    untouched.  Outcomes are returned in task order, one per task, and are
    identical (batched) or decision-identical (adaptive) to exact mode's.
    """
    if significance_mode == "exact":
        return [
            evaluate_pair_task(
                task,
                dataset1,
                dataset2,
                clause,
                n_permutations,
                alternative,
                base_seed,
                extractor,
            )
            for task in tasks
        ]

    graphs: dict[tuple[int, int, int, int], DomainGraph] = {}
    outcomes: list[PairOutcome] = []
    requests: list[SignificanceRequest] = []
    holders: list[tuple[PairOutcome, PairTask, str, object]] = []
    for task in tasks:
        fn1, fn2 = task.fn1, task.fn2
        outcome = PairOutcome(seq=task.seq)
        outcomes.append(outcome)
        slices = _overlap_slices(fn1.function, fn2.function)
        if slices is None:
            continue
        s1, s2 = slices
        graph_key = (
            id(fn1.function.graph.spatial_pairs),
            id(fn1.function.graph.step_labels),
            s1.start,
            s1.stop,
        )
        graph = graphs.get(graph_key)
        if graph is None:
            graph = fn1.function.graph.slice_steps(s1)
            graphs[graph_key] = graph
        for feature_type in clause.feature_types:
            outcome.n_evaluated += 1
            fs1 = _resolve_features(fn1, feature_type, clause, extractor)
            fs2 = _resolve_features(fn2, feature_type, clause, extractor)
            fs1 = fs1.slice_steps(s1.start, s1.stop)
            fs2 = fs2.slice_steps(s2.start, s2.stop)
            measures = evaluate_features(fs1, fs2)
            if not measures.is_related or not clause.admits_measures(measures):
                continue
            outcome.n_candidates += 1
            requests.append(
                SignificanceRequest(
                    fs1,
                    fs2,
                    graph,
                    seed=_pair_rng(
                        base_seed,
                        fn1.function_id,
                        fn2.function_id,
                        task.spatial.value,
                        task.temporal.value,
                        feature_type,
                    ),
                    observed=measures.score,
                )
            )
            holders.append((outcome, task, feature_type, measures))

    sigs = significance_batch(
        requests,
        n_permutations=n_permutations,
        alternative=alternative,
        mode=significance_mode,
        alpha=clause.alpha,
    )
    for (outcome, task, feature_type, measures), sig in zip(holders, sigs):
        if not sig.is_significant(clause.alpha):
            continue
        outcome.results.append(
            RelationshipResult(
                dataset1=dataset1,
                dataset2=dataset2,
                function1=task.fn1.function_id,
                function2=task.fn2.function_id,
                spatial=task.spatial,
                temporal=task.temporal,
                feature_type=feature_type,
                score=measures.score,
                strength=measures.strength,
                p_value=sig.p_value,
                n_related=measures.n_related,
                precision=measures.precision,
                recall=measures.recall,
            )
        )
    return outcomes


def relation(
    index1: DatasetIndex,
    index2: DatasetIndex,
    clause: Clause | None = None,
    n_permutations: int = 1000,
    alternative: str = "two-sided",
    seed: RngLike = 0,
    extractor: FeatureExtractor | None = None,
    significance_mode: str = "exact",
) -> RelationReport:
    """Evaluate all relationships between two indexed data sets.

    Parameters
    ----------
    index1, index2:
        Dataset indexes produced by :class:`~repro.core.corpus.Corpus`.
    clause:
        Optional filters (defaults to no filtering, α = 5%).
    n_permutations:
        Monte Carlo randomizations per significance test.
    alternative:
        Tail of the test (see :func:`significance_test`).
    seed:
        Base seed; per-pair seeds are derived deterministically from it.
    extractor:
        Only needed when the clause pins custom thresholds (to recompute
        features for those functions).
    significance_mode:
        ``"exact"`` (default), ``"batched"`` or ``"adaptive"`` — see
        :mod:`repro.core.significance`.  Batched and adaptive evaluate
        tasks in chunks of :data:`SIGNIFICANCE_CHUNK_TASKS` through
        :func:`significance_batch`.

    ``relation`` runs the tasks serially; ``CorpusIndex.query`` routes the
    same :func:`evaluate_pair_task` units through the map-reduce engine, so
    the two paths produce bit-identical reports.
    """
    if clause is None:
        clause = Clause()
    if index1.dataset == index2.dataset:
        raise DataError("relation() requires two distinct data sets")
    if significance_mode not in SIGNIFICANCE_MODES:
        raise DataError(f"unknown significance mode {significance_mode!r}")
    rng = ensure_rng(seed)
    base_seed = int(rng.integers(2**62))

    report = RelationReport(dataset1=index1.dataset, dataset2=index2.dataset)
    tasks = enumerate_pair_tasks(index1, index2, clause)
    for lo in range(0, len(tasks), SIGNIFICANCE_CHUNK_TASKS):
        for outcome in evaluate_pair_chunk(
            tasks[lo : lo + SIGNIFICANCE_CHUNK_TASKS],
            report.dataset1,
            report.dataset2,
            clause,
            n_permutations,
            alternative,
            base_seed,
            extractor,
            significance_mode,
        ):
            report.n_evaluated += outcome.n_evaluated
            report.n_candidates += outcome.n_candidates
            report.results.extend(outcome.results)
    report.n_significant = len(report.results)
    return report


def _resolve_features(
    fn: IndexedFunction,
    feature_type: str,
    clause: Clause,
    extractor: FeatureExtractor | None,
) -> FeatureSet:
    """Precomputed features, or clause-supplied-threshold features (§5.3)."""
    custom = clause.thresholds.get(fn.function_id)
    if custom is None:
        return fn.feature_set(feature_type)
    if extractor is None:
        extractor = FeatureExtractor()
    theta_pos, theta_neg = custom
    return extractor.extract_with_thresholds(fn.function, theta_pos, theta_neg)
