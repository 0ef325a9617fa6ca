"""Per-layer metrics: from a traced run's spans and returned reports to the
numbers named in :mod:`ledger.catalogue`.

Times tied to an operation are computed *per instance* of that operation
(the spans below its ``op.<name>`` span) and reported as the median over
instances, so they compare directly with the operation's own median and do
not depend on how many rounds fitted into the run.

Where the tasks do not run on the driver's thread (thread, process, cluster)
the layers inside the tasks — aggregation, merge trees, features, scoring,
significance — are taken from the probed serial reference pass over the same
corpus (``ref.build.probed`` / ``ref.query.probed``): they are single-core
layer times of this corpus, the base ``*_task_inflation`` compares against.

A value is ``None`` (reported as ``null``) when a probe it needs was broken;
``reasons`` then says why.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from .catalogue import LAYER_NAMES
from .probes import Span, children_index, descendants, self_seconds
from .run import OpRecord, WorkloadRun


class _Derivation:
    def __init__(self, run: WorkloadRun) -> None:
        assert run.log is not None
        self.run = run
        self.index = children_index(run.log.spans)
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.broken: dict[str, str] = dict(run.extras.get("broken", {}))
        self.post_errors = dict(run.log.post_errors)

    # -- helpers -----------------------------------------------------------

    def ops(self, name: str) -> list[OpRecord]:
        """The successful probed instances of one operation."""
        return [
            r
            for r in self.run.ops
            if r.name == name and r.ok and r.probed and r.span is not None
        ]

    def under(self, op: OpRecord, layer: str) -> list[Span]:
        assert op.span is not None
        return [s for s in descendants(op.span, self.index) if s.name == layer]

    def put(
        self,
        name: str,
        needs: tuple[str, ...],
        ops: list[OpRecord],
        fn: Callable[[OpRecord], float],
        counts_of: str | None = None,
    ) -> None:
        """``name`` = median over ``ops`` of ``fn``; ``None`` when a needed
        probe is broken (or its ``post`` hook raised, for count metrics)."""
        for layer in needs:
            if layer in self.broken:
                self.values[name] = None
                self.reasons[name] = self.broken[layer]
                return
        if counts_of is not None and counts_of in self.post_errors:
            self.values[name] = None
            self.reasons[name] = (
                f"probe on {counts_of} could not read its counts: "
                f"{self.post_errors[counts_of]}"
            )
            return
        if not ops:
            self.values[name] = None
            self.reasons[name] = "no successful probed operation to measure"
            return
        try:
            self.values[name] = float(statistics.median(fn(op) for op in ops))
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            self.values[name] = None
            self.reasons[name] = f"{type(exc).__name__}: {exc}"

    def busy(self, layer: str) -> Callable[[OpRecord], float]:
        return lambda op: sum(s.seconds for s in self.under(op, layer))

    def self_time(self, layer: str) -> Callable[[OpRecord], float]:
        return lambda op: sum(
            self_seconds(s, self.index) for s in self.under(op, layer)
        )

    def calls(self, layer: str) -> Callable[[OpRecord], float]:
        return lambda op: float(len(self.under(op, layer)))

    def count(self, layer: str, key: str) -> Callable[[OpRecord], float]:
        return lambda op: float(
            sum((s.counts or {})[key] for s in self.under(op, layer))
        )

    # -- the layers --------------------------------------------------------

    def derive(self) -> None:
        run, w = self.run, self.run.w
        inner = "ref.{}.probed" if w.is_parallel else "{}"
        builds = self.ops(inner.format("build"))
        queries = self.ops(inner.format("query"))
        own_builds = self.ops("build")
        own_queries = self.ops("query")
        updates = self.ops("update")
        put = self.put

        self.values["data.catalog.load_s"] = _median(run.samples("catalog_load", True))
        self.values["data.catalog.records"] = float(run.expected_records)

        agg = ("data.aggregation",)
        put("data.aggregation.busy_s", agg, builds, self.busy(agg[0]))
        put("data.aggregation.calls", agg, builds, self.calls(agg[0]))
        put(
            "data.aggregation.records_in",
            agg,
            builds,
            self.count(agg[0], "records_in"),
            counts_of=agg[0],
        )
        put(
            "core.scalar_function.busy_s",
            ("core.scalar_function",),
            builds,
            self.busy("core.scalar_function"),
        )
        tree = ("core.merge_tree",)
        put("core.merge_tree.busy_s", tree, builds, self.busy(tree[0]))
        put("core.merge_tree.calls", tree, builds, self.calls(tree[0]))
        put(
            "core.merge_tree.vertices",
            tree,
            builds,
            self.count(tree[0], "vertices"),
            counts_of=tree[0],
        )
        put(
            "core.features.self_s",
            ("core.features", "core.merge_tree"),
            builds,
            self.self_time("core.features"),
        )
        feat = ("core.features",)
        put("core.features.calls", feat, builds, self.calls(feat[0]))

        op_self = lambda op: self_seconds(op.span, self.index)  # noqa: E731
        put(
            "core.corpus.build_self_s",
            ("mapreduce.engine", "incremental.fingerprint"),
            own_builds,
            op_self,
        )
        put(
            "core.corpus.query_self_s",
            ("mapreduce.engine", "core.operator.enumerate"),
            own_queries,
            op_self,
        )
        enum = ("core.operator.enumerate",)
        put("core.operator.enumerate_s", enum, own_queries, self.busy(enum[0]))
        put(
            "core.operator.pair_tasks",
            enum,
            own_queries,
            self.count(enum[0], "pair_tasks"),
            counts_of=enum[0],
        )
        put(
            "core.operator.evaluate_self_s",
            ("core.operator.evaluate", "core.relationship", "core.significance"),
            queries,
            self.self_time("core.operator.evaluate"),
        )
        n_eval, n_cand, n_sig = run.query_counts.get("*", (0, 0, 0))
        self.values["core.operator.n_evaluated"] = float(n_eval)
        self.values["core.operator.n_candidates"] = float(n_cand)
        self.values["core.operator.n_significant"] = float(n_sig)
        ratio = n_cand / n_eval if n_eval else 0.0
        self.values["core.operator.candidate_ratio"] = ratio
        rel = ("core.relationship",)
        put("core.relationship.score_s", rel, queries, self.busy(rel[0]))
        put("core.relationship.calls", rel, queries, self.calls(rel[0]))
        sig = ("core.significance",)
        put("core.significance.busy_s", sig, queries, self.busy(sig[0]))
        put("core.significance.batches", sig, queries, self.calls(sig[0]))
        put(
            "core.significance.requests",
            sig,
            queries,
            self.count(sig[0], "requests"),
            counts_of=sig[0],
        )
        put(
            "core.significance.permutations_run",
            sig,
            queries,
            self.count(sig[0], "permutations_run"),
            counts_of=sig[0],
        )
        put(
            "core.significance.permutation_ratio",
            sig,
            queries,
            lambda op: self.count(sig[0], "permutations_run")(op)
            / max(1.0, self.count(sig[0], "permutations_requested")(op)),
            counts_of=sig[0],
        )

        for op_name, own in (("build", own_builds), ("query", own_queries)):
            self._engine(op_name, own)

        retries = [
            (s.counts or {}).get("retries", 0)
            for s in run.log.spans
            if s.name == "mapreduce.engine"
        ]
        self.values["distributed.coordinator.retries"] = float(sum(retries))
        fleet = run.extras.get("fleet_counters", {})
        per_run = max(1, run.engine_calls)
        for metric, counter in (
            ("distributed.dataplane.fetched_bytes", "repro.dataplane.fetched_bytes"),
            ("distributed.dataplane.mapped", "repro.dataplane.mapped"),
        ):
            self.values[metric] = float(fleet.get(counter, 0)) / per_run
        self.values["distributed.cluster.spawn_s"] = run.spawn_s
        self.values["distributed.cluster.teardown_s"] = run.teardown_s

        save_s = _median(run.samples("save", True))
        load_s = _median(run.samples("load", True))
        n_bytes = float(run.extras.get("persist_bytes", 0))
        self.values["persist.save_s"] = save_s
        self.values["persist.load_s"] = load_s
        self.values["persist.bytes"] = n_bytes
        self.values["persist.files"] = float(run.extras.get("persist_files", 0))
        self.values["persist.load_mb_per_s"] = n_bytes / 1e6 / load_s if load_s else 0.0

        fp = ("incremental.fingerprint",)
        put("incremental.fingerprint_s", fp, updates, self.busy(fp[0]))
        put(
            "incremental.plan_s",
            ("incremental.plan",) + fp,
            updates,
            self.self_time("incremental.plan"),
        )
        put(
            "incremental.apply_s",
            ("incremental.apply",),
            updates,
            self.busy("incremental.apply"),
        )
        self.values["incremental.noop_s"] = _median(run.samples("update_noop"))
        for metric, key in (
            ("incremental.partitions_rebuilt", "n_rebuilt"),
            ("incremental.partitions_reused", "n_reused"),
            ("incremental.bytes_rewritten", "bytes_rewritten"),
        ):
            put(metric, (), updates, lambda op, key=key: float(op.detail[key]))

        warm = _median(run.samples("query", False))
        self.values["cli.startup_s"] = _median(run.samples("cli.startup"))
        self.values["cli.first_query_penalty_s"] = (
            (run.warmup_seconds or 0.0) - warm if run.warmup_seconds else 0.0
        )
        plain = _median(run.samples("build", False)) + warm
        under_obs = sum(_median(run.samples(op)) for op in ("obs.build", "obs.query"))
        self.values["obs.trace_overhead_ratio"] = under_obs / plain if plain else 0.0

        probed_sum = plain_sum = 0.0
        for op_name in WorkloadRun.ROUND:
            a, b = run.samples(op_name, True), run.samples(op_name, False)
            if a and b:
                probed_sum += statistics.median(a)
                plain_sum += statistics.median(b)
        self.values["ledger.probe_overhead_ratio"] = (
            probed_sum / plain_sum if plain_sum else 0.0
        )

        unpinned = run.extras.get("blas_unpinned_query_s") or []
        ratios = [t / warm for t in unpinned] if warm else []
        blas = "mapreduce.engine.blas_default_ratio"
        self.values[blas] = _median(ratios)
        self.values[blas + "_min"] = min(ratios, default=0.0)
        self.values[blas + "_max"] = max(ratios, default=0.0)

        self.values["ledger.traced_build_s"] = _median(run.samples("build", True))
        self.values["ledger.traced_query_s"] = _median(run.samples("query", True))
        self.values["ledger.traced_update_s"] = _median(run.samples("update", True))
        covered = lambda op: 1.0 - op_self(op) / op.seconds  # noqa: E731
        put("ledger.build_coverage_ratio", ("mapreduce.engine",), own_builds, covered)
        put("ledger.query_coverage_ratio", ("mapreduce.engine",), own_queries, covered)
        singles = run.samples("query_one")
        self.values["core.corpus.query_one_p90_s"] = (
            statistics.quantiles(singles, n=10)[-1] if len(singles) > 1 else 0.0
        )
        self.values["ledger.metrics_null"] = float(
            sum(1 for v in self.values.values() if v is None)
        )

    def _engine(self, op_name: str, own: list[OpRecord]) -> None:
        """``mapreduce.engine.<op>_*`` and the executor-specific planes."""
        run, w = self.run, self.run.w
        eng = ("mapreduce.engine",)
        prefix = f"mapreduce.engine.{op_name}_"

        def engine_span(op: OpRecord) -> Span:
            return self.under(op, eng[0])[0]

        def counted(key: str) -> Callable[[OpRecord], float]:
            return lambda op: float((engine_span(op).counts or {})[key])

        self.put(prefix + "run_s", eng, own, lambda op: engine_span(op).seconds)
        for key in ("tasks", "task_busy_s", "shuffle_s", "straggler_ratio"):
            self.put(prefix + key, eng, own, counted(key), counts_of=eng[0])
        self.put(
            prefix + "self_s",
            eng,
            own,
            lambda op: engine_span(op).seconds
            - (counted("task_busy_s")(op) + counted("shuffle_s")(op)) / w.n_workers,
            counts_of=eng[0],
        )

        if w.is_parallel:
            base = _median(run.samples(f"ref.{op_name}"))
            here = _median(run.samples(op_name, False))
            self.values[prefix + "speedup"] = base / here if here else 0.0
            refs = [
                r.detail["job_stats"].total_task_seconds
                for r in run.ops
                if r.name == f"ref.{op_name}" and r.ok and "job_stats" in r.detail
            ]
            base_busy = _median(refs)
            self.put(
                prefix + "task_inflation",
                eng,
                own,
                lambda op: counted("task_busy_s")(op) / base_busy
                if base_busy
                else 0.0,
                counts_of=eng[0],
            )
        else:  # the serial workload is its own base
            self.values[prefix + "speedup"] = 1.0
            self.values[prefix + "task_inflation"] = 1.0

        shm = ("mapreduce.shm",)
        if w.executor == "process":
            self.put(f"mapreduce.shm.{op_name}_dumps_s", shm, own, self.busy(shm[0]))
            self.put(
                f"mapreduce.shm.{op_name}_payload_bytes",
                shm,
                own,
                self.count(shm[0], "payload_bytes"),
                counts_of=shm[0],
            )
        else:
            self.values[f"mapreduce.shm.{op_name}_dumps_s"] = 0.0
            self.values[f"mapreduce.shm.{op_name}_payload_bytes"] = 0.0

        coord = ("distributed.coordinator",)
        cluster_counts = (
            ("distributed.coordinator", "steals"),
            ("distributed.coordinator", "task_balance"),
            ("distributed.dataplane", "artifacts"),
            ("distributed.dataplane", "served_bytes"),
        )
        if w.executor == "cluster":
            run_s = f"distributed.coordinator.{op_name}_run_s"
            self.put(run_s, coord, own, self.busy(coord[0]))
            self.put(
                f"distributed.coordinator.{op_name}_shuffle_s",
                coord,
                own,
                self.count(coord[0], "shuffle_s"),
                counts_of=coord[0],
            )
            for layer, key in cluster_counts:
                self.put(f"{layer}.{op_name}_{key}", eng, own, counted(key), eng[0])
        else:
            self.values[f"distributed.coordinator.{op_name}_run_s"] = 0.0
            self.values[f"distributed.coordinator.{op_name}_shuffle_s"] = 0.0
            for layer, key in cluster_counts:
                self.values[f"{layer}.{op_name}_{key}"] = 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def derive(run: WorkloadRun) -> tuple[dict[str, Any], dict[str, str]]:
    """``(values, reasons)`` for every declared per-layer metric, in
    catalogue order; a ``None`` value has an entry in ``reasons``."""
    d = _Derivation(run)
    d.derive()
    missing = [n for n in LAYER_NAMES if n not in d.values]
    extra = [n for n in d.values if n not in LAYER_NAMES]
    if missing or extra:
        raise RuntimeError(f"layers/catalogue drift: missing {missing}, extra {extra}")
    return {n: d.values[n] for n in LAYER_NAMES}, d.reasons
