"""Corpus indexing and relationship queries (§5.2, §5.3).

A :class:`Corpus` holds a collection of data sets over one city.  Indexing
materializes every viable scalar function of every data set at every
evaluation resolution (Fig. 6), builds the merge-tree-driven features
(salient + extreme), and records the phase timings the performance
experiments report.  A :class:`CorpusIndex` then answers relationship
queries: *find relationships between D1 and D2 satisfying clause*.

Parallel execution (§5.4).  Both phases are expressed as map-reduce jobs on
:class:`repro.mapreduce.LocalEngine` — the paper's Hadoop deployment in
miniature:

* :class:`IndexPartitionJob` maps over (data set, resolution) partitions and
  reduces the materialized functions into one :class:`DatasetIndex` per data
  set.
* :class:`RelationshipPairJob` maps over *domain chunks* of candidates
  (:class:`~repro.core.operator.PairTask`: function pairs the driver
  already scored as feature-related, regrouped by resolution across data
  set pairs, see :mod:`repro.core.operator`), runs their significance tests
  and reduces the survivors into one result list per data set pair.

``build_index(..., n_workers=4, executor="thread")`` and
``query(..., n_workers=4, executor="thread")`` therefore fan work out across
cores while producing **bit-identical** results to the serial path: map
outputs are reassembled in canonical order and every significance test
seeds its own stream from an integer pair seed (see
``operator._pair_seed``).
``executor="process"`` extends the same guarantee to worker *processes*
(jobs and payloads are pickle-clean; large matrices travel through the
shared-memory plane), which also parallelizes the pure-Python merge-tree
sweeps that dominate indexing.  Knobs left unset fall back to
``$REPRO_EXECUTOR`` / ``$REPRO_WORKERS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .. import obs
from ..data.aggregation import FunctionSpec, aggregate, default_specs
from ..data.dataset import Dataset
from ..mapreduce.engine import default_engine
from ..mapreduce.job import Engine, JobStats, MapReduceJob
from ..spatial.city import CityModel
from ..spatial.resolution import SpatialResolution, viable_spatial_resolutions
from ..temporal.resolution import TemporalResolution, viable_temporal_resolutions
from ..utils.errors import DataError, QueryError
from ..utils.rng import RngLike
from .clause import Clause
from .features import FeatureExtractor
from .operator import (
    DatasetIndex,
    IndexedFunction,
    RelationReport,
    RelationshipResult,
    domain_chunks,
    enumerate_pair_tasks,
    evaluate_pair_chunk,
)
from .scalar_function import ScalarFunction
from .significance import SIGNIFICANCE_MODES


@dataclass
class IndexStats:
    """Bookkeeping of one indexing run (feeds Figs. 8 and §5.4).

    ``n_scalar_functions`` counts function-resolution materializations (the
    paper's 'computations'); byte counters account for the §5.4 space
    overhead comparison.
    """

    scalar_seconds: float = 0.0
    feature_seconds: float = 0.0
    n_scalar_functions: int = 0
    n_feature_sets: int = 0
    raw_bytes: int = 0
    function_bytes: int = 0
    feature_bytes: int = 0

    def merge(self, other: "IndexStats") -> None:
        """Accumulate another run's counters (used by the reduce phase)."""
        self.scalar_seconds += other.scalar_seconds
        self.feature_seconds += other.feature_seconds
        self.n_scalar_functions += other.n_scalar_functions
        self.n_feature_sets += other.n_feature_sets
        self.raw_bytes += other.raw_bytes
        self.function_bytes += other.function_bytes
        self.feature_bytes += other.feature_bytes


@dataclass
class QueryResult:
    """Outcome of a relationship query over a corpus.

    ``results`` contains the statistically significant relationships of all
    evaluated data set pairs; the counters aggregate the per-pair reports.
    ``job_stats`` carries the per-task timings of the map-reduce execution
    (one map task per domain chunk of candidates — significance tests only;
    the scoring happens on the driver) for the scalability experiments.
    """

    results: list[RelationshipResult] = field(default_factory=list)
    reports: list[RelationReport] = field(default_factory=list)
    n_evaluated: int = 0
    n_candidates: int = 0
    n_significant: int = 0
    elapsed_seconds: float = 0.0
    job_stats: JobStats | None = None
    significance_mode: str = "exact"

    @property
    def evaluations_per_minute(self) -> float:
        """Relationship-evaluation throughput (Fig. 9's metric)."""
        if self.elapsed_seconds == 0.0:
            return 0.0
        return self.n_evaluated / self.elapsed_seconds * 60.0

    def top(self, n: int = 10, by: str = "score") -> list[RelationshipResult]:
        """The ``n`` strongest relationships by |score| or strength."""
        if by == "score":
            key = lambda r: abs(r.score)  # noqa: E731 - tiny sort key
        elif by == "strength":
            key = lambda r: r.strength  # noqa: E731
        else:
            raise QueryError(f"unknown sort key {by!r}")
        return sorted(self.results, key=key, reverse=True)[:n]

    def between(self, dataset1: str, dataset2: str) -> list[RelationshipResult]:
        """Relationships of one unordered data set pair."""
        names = {dataset1, dataset2}
        return [r for r in self.results if {r.dataset1, r.dataset2} == names]


@dataclass
class IndexPartition:
    """Map output of :class:`IndexPartitionJob`: one (data set, resolution).

    ``seq`` is the partition's position in the canonical serial indexing
    order; the reducer sorts by it so the assembled ``DatasetIndex`` lists
    resolutions in exactly the order the serial loop would have produced.
    """

    seq: int
    resolution: tuple[SpatialResolution, TemporalResolution]
    functions: list[IndexedFunction]
    stats: IndexStats


class IndexPartitionJob(MapReduceJob):
    """Job 1+2 fused: materialize scalar functions + features per partition.

    Map input: ``((dataset_name, s_res, t_res), (seq, dataset, specs,
    regions, spatial_pairs))``.  The mapper aggregates the data set at one
    resolution and extracts merge-tree features for every resulting function;
    the reducer assembles one :class:`DatasetIndex` per data set.
    """

    def __init__(self, extractor: FeatureExtractor, fill: str) -> None:
        self.extractor = extractor
        self.fill = fill

    def map(self, key: Any, value: Any):
        dataset_name, s_res, t_res = key
        seq, dataset, specs, regions, pairs = value
        stats = IndexStats()
        start = time.perf_counter()
        aggregated = aggregate(
            dataset, s_res, t_res, regions=regions, specs=specs, fill=self.fill
        )
        stats.scalar_seconds = time.perf_counter() - start
        stats.n_scalar_functions = len(aggregated)

        indexed: list[IndexedFunction] = []
        start = time.perf_counter()
        for agg in aggregated:
            function = ScalarFunction.from_aggregated(agg, spatial_pairs=pairs)
            features = self.extractor.extract(function)
            stats.function_bytes += function.nbytes()
            stats.feature_bytes += features.nbytes()
            indexed.append(IndexedFunction(function=function, features=features))
        stats.feature_seconds = time.perf_counter() - start
        stats.n_feature_sets = len(indexed)
        yield dataset_name, IndexPartition(seq, (s_res, t_res), indexed, stats)

    def reduce(self, key: Any, values: list[Any]):
        # Per-partition stats are kept apart (not merged here): incremental
        # updates splice single partitions, so their IndexStats contribution
        # must stay attributable to one (data set, resolution).
        ds_index = DatasetIndex(dataset=key)
        stats_by_resolution: dict[Any, IndexStats] = {}
        for part in sorted(values, key=lambda p: p.seq):
            ds_index.functions[part.resolution] = part.functions
            stats_by_resolution[part.resolution] = part.stats
        yield key, (ds_index, stats_by_resolution)


class RelationshipPairJob(MapReduceJob):
    """One map task per domain chunk; one reducer per data set pair.

    Map input: ``((spatial, temporal, n), (tasks, maps))`` — one of
    :func:`~repro.core.operator.domain_chunks`' chunks: candidates of one
    resolution from any number of data set pairs, and their region graph's
    toroidal-shift family.  The mapper runs their restricted Monte Carlo
    significance tests and nothing else, and emits each data set pair's
    survivors to that pair's reducer, which sorts them back into serial
    order and yields the pair's significant relationships.
    """

    def __init__(
        self,
        alpha: float,
        n_permutations: int,
        alternative: str,
        significance_mode: str = "exact",
    ) -> None:
        self.alpha = alpha
        self.n_permutations = n_permutations
        self.alternative = alternative
        self.significance_mode = significance_mode

    def map(self, key: Any, value: Any):
        tasks, maps = value
        by_pair: dict[tuple[str, str], list] = {}
        for outcome in evaluate_pair_chunk(
            tasks,
            self.alpha,
            self.n_permutations,
            self.alternative,
            self.significance_mode,
            maps,
        ):
            pair = (outcome.result.dataset1, outcome.result.dataset2)
            by_pair.setdefault(pair, []).append(outcome)
        yield from by_pair.items()

    def reduce(self, key: Any, values: list[Any]):
        outcomes = sorted((o for chunk in values for o in chunk), key=lambda o: o.seq)
        yield key, [outcome.result for outcome in outcomes]


def _resolve_engine(
    engine: Engine | None, n_workers: int | None, executor: str | None
) -> Engine:
    """An explicit engine wins; otherwise build one from the simple knobs.

    Knobs left at ``None`` fall back to the ``REPRO_EXECUTOR`` /
    ``REPRO_WORKERS`` environment variables (see
    :func:`repro.mapreduce.engine.default_engine`), which is how CI replays
    entire test suites under the process and cluster executors.  Any backend
    satisfying the :class:`~repro.mapreduce.job.Engine` contract works —
    ``executor="cluster"`` resolves to the distributed one.
    """
    if engine is not None:
        return engine
    return default_engine(n_workers=n_workers, executor=executor, map_chunk_size="auto")


def resolution_scope(
    spatial: tuple[SpatialResolution, ...] | None,
    temporal: tuple[TemporalResolution, ...] | None,
) -> dict:
    """JSON-serializable form of a pair of resolution whitelists.

    ``None`` per axis means "every viable resolution" — a meaningful scope
    of its own (new resolutions join on update).
    """
    return {
        "spatial": None if spatial is None else [s.value for s in spatial],
        "temporal": None if temporal is None else [t.value for t in temporal],
    }


def scope_whitelists(
    scope: dict,
) -> tuple[
    tuple[SpatialResolution, ...] | None,
    tuple[TemporalResolution, ...] | None,
]:
    """Inverse of :func:`resolution_scope`."""
    spatial = scope.get("spatial")
    temporal = scope.get("temporal")
    return (
        None if spatial is None else tuple(SpatialResolution(s) for s in spatial),
        None if temporal is None else tuple(TemporalResolution(t) for t in temporal),
    )


class Corpus:
    """A collection of data sets over one city, ready for indexing."""

    def __init__(
        self,
        datasets: list[Dataset],
        city: CityModel,
        extractor: FeatureExtractor | None = None,
        fill: str = "global_mean",
    ) -> None:
        names = [d.name for d in datasets]
        if len(set(names)) != len(names):
            raise DataError("data set names within a corpus must be unique")
        if not datasets:
            raise DataError("a corpus needs at least one data set")
        self.datasets = {d.name: d for d in datasets}
        self.city = city
        self.extractor = extractor or FeatureExtractor()
        self.fill = fill

    def build_index(
        self,
        spatial: tuple[SpatialResolution, ...] | None = None,
        temporal: tuple[TemporalResolution, ...] | None = None,
        specs: dict[str, list[FunctionSpec]] | None = None,
        n_workers: int | None = None,
        executor: str | None = None,
        engine: Engine | None = None,
    ) -> "CorpusIndex":
        """Materialize scalar functions and features for every data set.

        Parameters
        ----------
        spatial, temporal:
            Optional whitelists restricting the evaluation resolutions (used
            by benchmarks to bound cost).  Defaults to every viable
            resolution of each data set.
        specs:
            Optional per-data-set function specs (defaults to all of §5.1's
            count + attribute functions).
        n_workers, executor:
            Parallel-execution knobs forwarded to the map-reduce engine:
            ``executor="thread"`` or ``"process"`` with ``n_workers > 1``
            fans the (data set, resolution) partitions out across a worker
            pool ("process" also parallelizes the pure-Python merge-tree
            sweeps; its payloads travel through the shared-memory plane).
            Results are bit-identical to the serial default.  ``None`` falls
            back to ``$REPRO_EXECUTOR`` / ``$REPRO_WORKERS``, then serial.
        engine:
            Optional pre-configured engine (a
            :class:`~repro.mapreduce.engine.LocalEngine` or a
            :class:`~repro.distributed.ClusterEngine`); overrides
            ``n_workers``/``executor``.
        """
        run_engine = _resolve_engine(engine, n_workers, executor)
        index = CorpusIndex(
            city=self.city, corpus=self, extractor=self.extractor, fill=self.fill
        )
        for dataset in self.datasets.values():
            index.stats.raw_bytes += dataset.nbytes()

        with obs.span("index.build", n_datasets=len(self.datasets)) as build_span:
            inputs = self.partition_inputs(
                spatial=spatial, temporal=temporal, specs=specs
            )
            job = IndexPartitionJob(self.extractor, self.fill)
            outputs, job_stats = run_engine.run(job, inputs)
            index.job_stats = job_stats

            reduced = dict(outputs)
            for name in self.datasets:
                if name in reduced:
                    ds_index, stats_by_resolution = reduced[name]
                    for (s_res, t_res), stats in stats_by_resolution.items():
                        index.stats.merge(stats)
                        index.partition_stats[(name, s_res, t_res)] = stats
                else:  # data set with no viable resolution under the whitelists
                    ds_index = DatasetIndex(dataset=name)
                index.datasets[name] = ds_index

            # Content fingerprints per (data set, resolution) partition:
            # persisted with the index so `repro update` can later prove
            # which partitions are reusable.  Lazy import:
            # repro.incremental imports this module at its own top level.
            from ..incremental.fingerprint import fingerprints_for_inputs

            index.partition_fingerprints = fingerprints_for_inputs(
                inputs, self.city, self.extractor, self.fill
            )
            index.scope = resolution_scope(spatial, temporal)
            build_span.set(n_partitions=len(inputs))
        return index

    def partition_inputs(
        self,
        spatial: tuple[SpatialResolution, ...] | None = None,
        temporal: tuple[TemporalResolution, ...] | None = None,
        specs: dict[str, list[FunctionSpec]] | None = None,
    ) -> list[tuple[Any, Any]]:
        """The canonical :class:`IndexPartitionJob` input list.

        One entry per viable (data set, resolution) partition, in the serial
        indexing order; ``seq`` numbers are assigned in that order.  Shared
        by :meth:`build_index` and the incremental update planner
        (:func:`repro.incremental.plan.plan_update`), so both enumerate —
        and fingerprint — exactly the same partitions.
        """
        inputs: list[tuple[Any, Any]] = []
        seq = 0
        for dataset in self.datasets.values():
            ds_specs = (specs or {}).get(dataset.name) or default_specs(dataset)
            for s_res in self._spatial_for(dataset, spatial):
                regions = (
                    None
                    if s_res is SpatialResolution.CITY
                    else self.city.region_set(s_res)
                )
                pairs = self.city.spatial_pairs(s_res)
                for t_res in self._temporal_for(dataset, temporal):
                    inputs.append(
                        (
                            (dataset.name, s_res, t_res),
                            (seq, dataset, ds_specs, regions, pairs),
                        )
                    )
                    seq += 1
        return inputs

    # -- internals -----------------------------------------------------------

    def _spatial_for(
        self, dataset: Dataset, whitelist: tuple[SpatialResolution, ...] | None
    ) -> list[SpatialResolution]:
        viable = viable_spatial_resolutions(dataset.schema.spatial_resolution)
        available = set(self.city.available_resolutions())
        out = [r for r in viable if r in available]
        if whitelist is not None:
            out = [r for r in out if r in whitelist]
        return out

    def _temporal_for(
        self, dataset: Dataset, whitelist: tuple[TemporalResolution, ...] | None
    ) -> list[TemporalResolution]:
        viable = viable_temporal_resolutions(dataset.schema.temporal_resolution)
        if whitelist is not None:
            viable = tuple(r for r in viable if r in whitelist)
        return list(viable)


@dataclass
class CorpusIndex:
    """The indexed corpus: per-data-set function/feature stores + stats.

    ``corpus`` is the collection the index was built from; it is ``None``
    for indexes restored from disk (:meth:`load`), which carry everything a
    query needs — functions, features, ``extractor`` configuration and the
    city model — without the raw data.
    """

    city: CityModel
    corpus: Corpus | None = None
    datasets: dict[str, DatasetIndex] = field(default_factory=dict)
    stats: IndexStats = field(default_factory=IndexStats)
    job_stats: JobStats | None = None
    extractor: FeatureExtractor | None = None
    fill: str = "global_mean"
    #: Per-partition §5.4 bookkeeping, keyed ``(dataset, spatial, temporal)``:
    #: each partition's own IndexStats contribution (``raw_bytes`` excluded —
    #: that is per data set) and its content fingerprint.  Persisted with the
    #: index and restored by :meth:`load`.
    partition_stats: dict[Any, IndexStats] = field(default_factory=dict)
    partition_fingerprints: dict[Any, str] = field(default_factory=dict)
    #: The resolution whitelists the index was built with, as
    #: ``{"spatial": [values]|None, "temporal": [values]|None}`` (None =
    #: every viable resolution).  Persisted so ``repro update`` maintains
    #: exactly the scope that was asked for — including "all viable", under
    #: which newly viable resolutions are *added* on update just as a fresh
    #: build would include them.  Set by ``build_index`` and :meth:`load`.
    scope: dict | None = None

    def dataset_index(self, name: str) -> DatasetIndex:
        """The index of one data set (QueryError if unknown)."""
        try:
            return self.datasets[name]
        except KeyError:
            raise QueryError(f"data set {name!r} is not indexed") from None

    def query(
        self,
        datasets1: list[str] | None = None,
        datasets2: list[str] | None = None,
        clause: Clause | None = None,
        n_permutations: int = 1000,
        alternative: str = "two-sided",
        seed: RngLike = 0,
        n_workers: int | None = None,
        executor: str | None = None,
        engine: Engine | None = None,
        significance_mode: str = "exact",
    ) -> QueryResult:
        """Find relationships between D1 and D2 satisfying ``clause`` (§5.3).

        ``datasets1`` defaults to every indexed data set; ``datasets2``
        defaults to the full corpus (the paper's ``D2 = ∅`` convention).
        Every unordered pair (Di, Dj) with Di ≠ Dj is evaluated once.

        The driver scores every function pair of the requested data set
        pairs off count tables and keeps the candidates (see
        :func:`~repro.core.operator.enumerate_pair_tasks`);
        ``n_workers``/``executor`` (or an explicit ``engine``) fan the
        candidates' significance tests out through the map-reduce engine in
        :func:`~repro.core.operator.domain_chunks`: per (spatial, temporal)
        resolution, across data set pairs, at most
        :data:`~repro.core.operator.SIGNIFICANCE_CHUNK_TASKS` each.
        Every candidate carries its own integer seed, so ``executor="thread"``
        or ``"process"`` with ``n_workers=4`` returns results bit-identical
        to the serial default under the same ``seed``.

        ``significance_mode`` selects the permutation-test evaluation mode
        (see :mod:`repro.core.significance`): ``"exact"`` tests a chunk's
        candidates one by one, ``"batched"`` and ``"adaptive"`` in stacked
        NumPy passes.  Batched results are bit-identical to exact's,
        adaptive ones are decision-identical at the clause's α — under every
        executor.
        """
        if clause is None:
            clause = Clause()
        if significance_mode not in SIGNIFICANCE_MODES:
            raise QueryError(f"unknown significance mode {significance_mode!r}")
        d1 = list(datasets1) if datasets1 else list(self.datasets)
        d2 = list(datasets2) if datasets2 else list(self.datasets)
        for name in d1 + d2:
            if name not in self.datasets:
                raise QueryError(f"data set {name!r} is not indexed")

        # Pairs are canonicalized alphabetically so per-pair RNG seeds (and
        # hence p-values) do not depend on the order data sets were listed.
        pairs = list(
            dict.fromkeys(
                (a, b) if a <= b else (b, a) for a in d1 for b in d2 if a != b
            )
        )

        run_engine = _resolve_engine(engine, n_workers, executor)
        result = QueryResult(significance_mode=significance_mode)
        start = time.perf_counter()

        with obs.span(
            "index.query", n_pairs=len(pairs), mode=significance_mode
        ) as query_span:
            extractor = self.extractor
            if extractor is None and self.corpus is not None:
                extractor = self.corpus.extractor
            # d1 is the count tables' compact side: a query for one data set
            # scores that data set against the corpus, no more.
            plans = enumerate_pair_tasks(
                self.datasets, pairs, set(d1), clause, seed, extractor
            )
            inputs = domain_chunks(plans, n_permutations, significance_mode)
            job = RelationshipPairJob(
                clause.alpha, n_permutations, alternative, significance_mode
            )
            outputs, job_stats = run_engine.run(job, inputs)
            result.job_stats = job_stats

            reports = {(r.dataset1, r.dataset2): r for r, _tasks in plans}
            for pair, results in outputs:
                reports[pair].results = results
            for report, _tasks in plans:
                report.n_significant = len(report.results)
                result.reports.append(report)
                result.results.extend(report.results)
                result.n_evaluated += report.n_evaluated
                result.n_candidates += report.n_candidates
                result.n_significant += report.n_significant
            result.elapsed_seconds = time.perf_counter() - start
            query_span.set(
                n_evaluated=result.n_evaluated,
                n_significant=result.n_significant,
            )
        obs.histogram("repro.query.seconds").observe(result.elapsed_seconds)
        obs.counter("repro.query.count").inc()
        obs.counter("repro.query.evaluated").inc(result.n_evaluated)
        obs.counter("repro.query.candidates").inc(result.n_candidates)
        obs.counter("repro.query.significant").inc(result.n_significant)
        return result

    def save(
        self,
        path: str,
        n_workers: int | None = None,
        executor: str | None = None,
        engine: Engine | None = None,
    ):
        """Serialize this index to directory ``path`` (see :mod:`repro.persist`).

        Partition files are written through the map-reduce engine, so
        ``n_workers``/``executor`` (or an explicit ``engine``) parallelize
        the I/O exactly like :meth:`Corpus.build_index` parallelizes the
        computation.  Returns the manifest path.
        """
        from ..persist.index_io import save_index

        run_engine = _resolve_engine(engine, n_workers, executor)
        return save_index(self, path, engine=run_engine)

    @classmethod
    def load(
        cls,
        path: str,
        n_workers: int | None = None,
        executor: str | None = None,
        engine: Engine | None = None,
    ) -> "CorpusIndex":
        """Restore an index saved by :meth:`save`, skipping re-indexing.

        The loaded index answers :meth:`query` bit-identically to the index
        it was saved from (same seed, serial or parallel).  Corrupt or
        version-mismatched files raise
        :class:`repro.utils.errors.PersistError`.
        """
        from ..persist.index_io import load_index

        return load_index(path, engine=_resolve_engine(engine, n_workers, executor))

    @classmethod
    def update(
        cls,
        path: str,
        corpus: Corpus,
        spatial: tuple[SpatialResolution, ...] | None = None,
        temporal: tuple[TemporalResolution, ...] | None = None,
        specs: dict[str, list[FunctionSpec]] | None = None,
        dry_run: bool = False,
        n_workers: int | None = None,
        executor: str | None = None,
        engine: Engine | None = None,
    ):
        """Incrementally reconcile the index at ``path`` with ``corpus``.

        Compares the saved index's content fingerprints against the live
        corpus, rebuilds only the (data set, resolution) partitions whose
        inputs changed, splices them with the untouched partition files on
        disk, and atomically rewrites the manifest.  The result is
        bit-identical to ``corpus.build_index(...).save(path)`` at a
        fraction of the cost when most partitions are unchanged.  Returns an
        :class:`~repro.incremental.update.UpdateReport`; with
        ``dry_run=True`` nothing is written and the report just carries the
        plan.  See :mod:`repro.incremental`.
        """
        from ..incremental.update import update_index

        # A dry run never executes jobs — don't build an engine for it
        # (under $REPRO_EXECUTOR=cluster that would dial the coordinator).
        run_engine = None if dry_run else _resolve_engine(engine, n_workers, executor)
        return update_index(
            path,
            corpus,
            spatial=spatial,
            temporal=temporal,
            specs=specs,
            dry_run=dry_run,
            engine=run_engine,
        )
