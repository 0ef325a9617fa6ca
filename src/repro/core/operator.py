"""The relationship operator ``relation(D1, D2)`` (§4, §5.3).

Given two indexed data sets, the operator evaluates every pair of their
scalar functions at every common spatio-temporal resolution (finest first),
for both the salient and the extreme feature channels, and returns the
statistically significant relationships with their score and strength.

Score by table, test only candidates.  The paper's operator compares the
feature bit vectors of *every* function pair and runs the §4 permutation
test on the feature-related ones only (Fig. 11's funnel).  Here the two
halves are two stages:

1. :func:`enumerate_pair_tasks` *scores*.  Per admitted resolution and
   feature channel it reads every (row function, column function) pair's
   set cardinalities off a few exact-integer matrix products of the stacked
   feature masks (:func:`repro.core.relationship.count_table`; that module
   carries the counting argument).  The tables are rectangular — a query
   for one data set pays for that data set's functions against its
   partners' only — and transient: one resolution at a time, gone before
   the engine runs.  ``n_evaluated`` is arithmetic (function pairs whose
   step ranges overlap × feature channels); the two thirds of the
   evaluations that are not feature-related are never enumerated.  Cost:
   O(F₁·F₂·T·R) inside BLAS plus O(candidates) interpreted.
2. :func:`evaluate_pair_chunk` *tests*.  A map task receives candidates
   only (:class:`PairTask`: resolved feature sets, measures, seed), aligns
   each function once per overlap within its chunk and runs the
   significance tests; nothing else.  :func:`domain_chunks` cuts the
   chunks *by domain, not by data set pair*: §4's randomizations belong to
   the region graph, so all candidates of one (spatial, temporal)
   resolution — whichever data set pairs they come from — share one
   toroidal-shift family and one function meets all of its partners in one
   batch.  The driver resolves the family and the chunk carries it.

There is one scoring path — no per-pair loop, no size cutoff choosing
between table and loop.  ``score_from_masks`` stays as the per-pair
reference that ``significance_test`` and the tests use.
"""

from __future__ import annotations

import zlib
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..graph.domain_graph import DomainGraph
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.errors import DataError
from ..utils.rng import RngLike, ensure_rng
from .clause import Clause
from .features import FeatureExtractor, FeatureSet, FunctionFeatures

# ``evaluate_features`` is no longer called here (the table scores); it stays
# an attribute of this module because the perf ledger's probe patches it in
# by name.
from .relationship import (
    RelationshipMeasures,
    count_table,
    evaluate_features,  # noqa: F401
    measures_from_counts,
)
from .scalar_function import ScalarFunction
from .significance import (
    SIGNIFICANCE_MODES,
    SignificanceRequest,
    domain_toroidal_maps,
    region_graph_key,
    significance_batch,
    significance_test,
)

#: Most candidates per :func:`evaluate_pair_chunk` call, i.e. per map task:
#: the cap of one domain chunk (:func:`domain_chunks`).  Large enough that a
#: function's conversion to signed masks and the per-span NumPy calls are
#: shared by many pairs, small enough to keep map tasks granular and a
#: batch's co-occurrence table (2 · R² entries per candidate) small.
SIGNIFICANCE_CHUNK_TASKS = 128


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
        return sorted(self.functions, key=_fineness)

    @property
    def n_functions(self) -> int:
        """Scalar-function count at the native-most resolution."""
        if not self.functions:
            return 0
        return max(len(v) for v in self.functions.values())


def _fineness(key: tuple[SpatialResolution, TemporalResolution]) -> tuple[int, int]:
    return key[0].rank, key[1].rank


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


def _pair_seed(base: int, *tokens: str) -> int:
    """Deterministic per-pair RNG seed, independent of iteration order.

    Every (function pair, resolution, feature type) combination gets its own
    seed — never a generator shared across tasks — so candidates can be
    tested on any worker in any order and still produce bit-identical
    p-values.  The seed stays an integer until a test draws from its stream
    (``default_rng(seed)`` is ``default_rng(SeedSequence(seed))``, the same
    stream); the batched toroidal tests never do.
    """
    digest = zlib.crc32("|".join(tokens).encode())
    return (base * 1_000_003 + digest) % (2**63 - 1)


def _overlap_slices(
    labels1: np.ndarray, labels2: np.ndarray
) -> tuple[slice, slice] | None:
    """Aligned time-slices of two consecutive step-label ranges' overlap."""
    first = max(int(labels1[0]), int(labels2[0]))
    last = min(int(labels1[-1]), int(labels2[-1]))
    if last < first:
        return None
    s1 = slice(first - int(labels1[0]), last - int(labels1[0]) + 1)
    s2 = slice(first - int(labels2[0]), last - int(labels2[0]) + 1)
    return s1, s2


@dataclass(frozen=True)
class ResolvedFeatures:
    """One function's feature channel as a query scores and tests it: the
    precomputed one, or the one recomputed from clause-pinned thresholds
    (§5.3).  Resolved once per query and shared by all of its candidates."""

    function_id: str
    graph: DomainGraph
    features: FeatureSet


@dataclass(frozen=True)
class PairTask:
    """One schedulable unit of a relationship query: a *candidate*.

    A (function pair, resolution, feature type) combination that is
    feature-related and passed the clause, so that only its significance
    test is left to run.  ``dataset1``/``dataset2`` name the data set pair
    it belongs to — a chunk mixes the candidates of many — and ``seq`` is
    its position among that pair's candidates in the canonical serial order
    (common resolutions finest-first, then the first data set's functions,
    then the second's, then the feature types); reducers sort by it so
    parallel execution reassembles reports in exactly the serial order.
    """

    seq: int
    dataset1: str
    dataset2: str
    fn1: ResolvedFeatures
    fn2: ResolvedFeatures
    spatial: SpatialResolution
    temporal: TemporalResolution
    feature_type: str
    measures: RelationshipMeasures
    base_seed: int

    @property
    def seed(self) -> int:
        """The candidate's own RNG seed (see :func:`_pair_seed`)."""
        return _pair_seed(
            self.base_seed,
            self.fn1.function_id,
            self.fn2.function_id,
            self.spatial.value,
            self.temporal.value,
            self.feature_type,
        )


@dataclass(frozen=True)
class PairOutcome:
    """A candidate that survived its significance test."""

    seq: int
    result: RelationshipResult


def enumerate_pair_tasks(
    datasets: Mapping[str, DatasetIndex],
    pairs: Sequence[tuple[str, str]],
    rows: Collection[str],
    clause: Clause,
    seed: RngLike,
    extractor: FeatureExtractor | None,
) -> list[tuple[RelationReport, list[PairTask]]]:
    """Score the data set ``pairs``; return each one's report and candidates.

    One entry per ``(dataset1, dataset2)`` pair, in order: the pair's
    :class:`RelationReport` with ``n_evaluated`` and ``n_candidates`` filled
    in, and its candidates in canonical order.  A pair without a common
    resolution, overlapping step ranges or a candidate still gets its report.

    ``rows`` names the data sets a query is *for*.  Pairs led by one of them
    share one table and the remaining pairs another, so that a table's rows
    (the pairs' ``dataset1``) or its columns (their ``dataset2``) are those
    data sets' functions and a query for one data set pays for that data
    set's functions against its partners', not for the partners against each
    other.  Clause-pinned thresholds are resolved here, once per function,
    never in the map tasks.  ``seed`` gives every pair its base seed: a fresh
    draw per pair, so an int seeds every pair alike and a ``Generator``
    advances in pair order.

    Functions stacked into one table must agree in region count
    (:class:`DataError` otherwise) whether or not they are paired: an index
    is over one city, which has one region set per spatial resolution.
    """
    resolved: dict[tuple[int, str | None], ResolvedFeatures] = {}

    def resolve(fn: IndexedFunction, feature_type: str) -> ResolvedFeatures:
        custom = clause.thresholds.get(fn.function_id)
        # Pinned thresholds ignore the channel: one extraction serves both.
        key = (id(fn), feature_type if custom is None else None)
        if key not in resolved:
            if custom is None:
                features = fn.feature_set(feature_type)
            else:
                features = (extractor or FeatureExtractor()).extract_with_thresholds(
                    fn.function, *custom
                )
            resolved[key] = ResolvedFeatures(
                fn.function_id, fn.function.graph, features
            )
        return resolved[key]

    def stack(names: list[str], key: tuple) -> tuple[list, dict[str, slice]]:
        """The named data sets' functions at ``key``, concatenated and
        resolved per feature type, and where each data set's run sits."""
        fns: list[IndexedFunction] = []
        where: dict[str, slice] = {}
        for name in dict.fromkeys(names):
            own = datasets[name].functions[key]
            where[name] = slice(len(fns), len(fns) + len(own))
            fns += own
        return [[resolve(fn, ft) for fn in fns] for ft in clause.feature_types], where

    plans = [(RelationReport(dataset1=a, dataset2=b), []) for a, b in pairs]
    base_seeds = [int(ensure_rng(seed).integers(2**62)) for _ in pairs]
    n_channels = len(clause.feature_types)
    resolutions = sorted(
        {
            key
            for pair in pairs
            for name in pair
            for key in datasets[name].functions
            if n_channels and clause.admits_resolution(*key)
        },
        key=_fineness,
    )
    with obs.span("query.score", n_resolutions=len(resolutions)) as score_span:
        n_functions = 0
        for key in resolutions:
            active = [
                (n, a, b)
                for n, (a, b) in enumerate(pairs)
                if key in datasets[a].functions and key in datasets[b].functions
            ]
            # One table for the pairs a ``rows`` data set leads, one for the
            # rest: either way those data sets are a side of their own.
            led = [pair for pair in active if pair[1] in rows]
            rest = [pair for pair in active if pair[1] not in rows]
            for group in filter(None, (led, rest)):
                fns1, at1 = stack([a for _, a, _ in group], key)
                fns2, at2 = stack([b for _, _, b in group], key)
                n_functions += len(fns1[0]) + len(fns2[0])
                counts = np.stack(
                    [
                        count_table(
                            [(int(f.graph.step_labels[0]), f.features) for f in one],
                            [(int(f.graph.step_labels[0]), f.features) for f in two],
                        )
                        for one, two in zip(fns1, fns2)
                    ]
                )
                for n, a, b in group:
                    report, tasks = plans[n]
                    block = counts[:, :, at1[a], at2[b]]
                    n_overlapping = int(np.count_nonzero(block[0, 5]))
                    report.n_evaluated += n_channels * n_overlapping
                    # Channel-last, so argwhere walks (fn1, fn2, feature type).
                    related = np.argwhere(block[:, 0].transpose(1, 2, 0))
                    for i, j, k in related.tolist():
                        measures = measures_from_counts(*block[k, :5, i, j].tolist())
                        if clause.admits_measures(measures):
                            tasks.append(
                                PairTask(
                                    len(tasks),
                                    a,
                                    b,
                                    fns1[k][at1[a].start + i],
                                    fns2[k][at2[b].start + j],
                                    *key,
                                    clause.feature_types[k],
                                    measures,
                                    base_seeds[n],
                                )
                            )
                    report.n_candidates = len(tasks)
        score_span.set(n_functions=n_functions)
    return plans


def domain_chunks(
    plans: Sequence[tuple[RelationReport, Sequence[PairTask]]],
    n_permutations: int,
    significance_mode: str,
) -> list[tuple[tuple, tuple[list[PairTask], np.ndarray | None]]]:
    """The testing stage's map inputs: ``(key, (candidates, family))``.

    The candidates of all ``plans`` are regrouped by domain — (spatial,
    temporal) resolution and region graph, which one index ties together —
    and each domain is cut into chunks of at most
    :data:`SIGNIFICANCE_CHUNK_TASKS`.  A spatial domain's chunks carry its
    toroidal-shift family (``None`` for time series, whose tests rotate, and
    for the per-pair ``"exact"`` reference, which looks it up itself): the
    driver owns the family cache, so a map task never builds one, on any
    executor, and the one array is shipped once per run.
    """
    graph_keys: dict[int, tuple[int, bytes]] = {}
    domains: dict[tuple, list[PairTask]] = {}
    for _report, tasks in plans:
        for task in tasks:
            region_graph = region_graph_key(task.fn1.graph, graph_keys)
            key = (task.spatial, task.temporal, region_graph)
            domains.setdefault(key, []).append(task)

    # One array object per region graph and query: the array plane ships an
    # array once per run by identity, and a count below the cached one is a
    # fresh slice on every lookup.
    families: dict[tuple[int, bytes], np.ndarray] = {}
    chunks: list = []
    for (spatial, temporal, region_graph), tasks in domains.items():
        maps = None
        if significance_mode != "exact" and region_graph[0] >= 2:
            maps = families.get(region_graph)
            if maps is None:
                maps = families[region_graph] = domain_toroidal_maps(
                    tasks[0].fn1.graph, n_permutations
                )
        for lo in range(0, len(tasks), SIGNIFICANCE_CHUNK_TASKS):
            key = (spatial.value, temporal.value, len(chunks))
            chunks.append((key, (tasks[lo : lo + SIGNIFICANCE_CHUNK_TASKS], maps)))
    return chunks


def evaluate_pair_chunk(
    tasks: Sequence[PairTask],
    alpha: float,
    n_permutations: int,
    alternative: str,
    significance_mode: str = "exact",
    maps: np.ndarray | None = None,
) -> list[PairOutcome]:
    """Test a chunk of candidates; return the significant ones, in order.

    The body of one map task, for all three modes: align each function once
    per overlap within the chunk, then ``"exact"`` runs the per-pair
    reference :func:`significance_test` on every candidate, while
    ``"batched"`` and ``"adaptive"`` queue them into one
    :func:`significance_batch` call (per-function FFT / signed-mask passes
    instead of per-pair Python loops), handing over ``maps`` — the chunk's
    toroidal-shift family, see :func:`domain_chunks`.  Outcomes are
    identical (batched) or decision-identical (adaptive) to exact mode's.
    """
    aligned: dict[tuple, FeatureSet] = {}

    def align(fn: ResolvedFeatures, window: slice) -> FeatureSet:
        key = (id(fn), window.start, window.stop)
        if key not in aligned:
            aligned[key] = fn.features.slice_steps(window.start, window.stop)
        return aligned[key]

    requests = []
    for task in tasks:
        # A candidate is feature-related, so its step ranges do overlap.  The
        # tests read the graph's regions only: it needs no alignment.
        s1, s2 = _overlap_slices(task.fn1.graph.step_labels, task.fn2.graph.step_labels)
        requests.append(
            SignificanceRequest(
                align(task.fn1, s1),
                align(task.fn2, s2),
                task.fn1.graph,
                seed=task.seed,
                observed=task.measures.score,
                maps=maps,
            )
        )
    if significance_mode == "exact":
        sigs = [
            significance_test(
                r.fs1, r.fs2, r.graph, n_permutations, alternative, seed=r.seed
            )
            for r in requests
        ]
    else:
        sigs = significance_batch(
            requests, n_permutations, alternative, significance_mode, alpha
        )
    return [
        PairOutcome(
            task.seq,
            RelationshipResult(
                dataset1=task.dataset1,
                dataset2=task.dataset2,
                function1=task.fn1.function_id,
                function2=task.fn2.function_id,
                spatial=task.spatial,
                temporal=task.temporal,
                feature_type=task.feature_type,
                score=task.measures.score,
                strength=task.measures.strength,
                p_value=sig.p_value,
                n_related=task.measures.n_related,
                precision=task.measures.precision,
                recall=task.measures.recall,
            ),
        )
        for task, sig in zip(tasks, sigs)
        if sig.is_significant(alpha)
    ]


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
        :mod:`repro.core.significance`.

    ``relation`` scores with :func:`enumerate_pair_tasks` and tests the
    candidates' :func:`domain_chunks` serially; ``CorpusIndex.query`` routes
    the same chunks through the map-reduce engine, so the two paths produce
    bit-identical reports.
    """
    if clause is None:
        clause = Clause()
    if index1.dataset == index2.dataset:
        raise DataError("relation() requires two distinct data sets")
    if significance_mode not in SIGNIFICANCE_MODES:
        raise DataError(f"unknown significance mode {significance_mode!r}")

    [(report, tasks)] = enumerate_pair_tasks(
        {index1.dataset: index1, index2.dataset: index2},
        [(index1.dataset, index2.dataset)],
        {index1.dataset},
        clause,
        seed,
        extractor,
    )
    outcomes = [
        outcome
        for _key, (chunk, maps) in domain_chunks(
            [(report, tasks)], n_permutations, significance_mode
        )
        for outcome in evaluate_pair_chunk(
            chunk, clause.alpha, n_permutations, alternative, significance_mode, maps
        )
    ]
    report.results = [o.result for o in sorted(outcomes, key=lambda o: o.seq)]
    report.n_significant = len(report.results)
    return report
