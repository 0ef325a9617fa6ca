"""The declared metrics: names, units, bounds and definitions.

This is the single source of truth.  ``BENCHMARK.json`` is
:func:`benchmark_json` written to disk (``python3 -m ledger
--write-benchmark-json``), the runner emits exactly these names, and
``ledger/test_ledger.py`` checks that all three agree.

Every workload reports every metric, because the benchmark contract wants
one flat list.  An end-to-end metric is measured by the same operation on
every workload.  A per-layer metric whose layer a workload does not
exercise (``distributed.*`` off the cluster, ``mapreduce.shm.*`` off the
process pool, the BLAS probe off ``urban_process``) reads 0 there; a
per-layer metric whose probe could not be installed reads ``null`` in the
ledger's own tables and 0 in the contract line, and is counted in
``ledger.metrics_null``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .workloads import WORKLOADS

#: How long one run measures (``--seconds``), in whole seconds.
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    definition: str
    #: End-to-end only: the share of the parent's median by which the metric
    #: may get worse before a change is a regression.
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s",
        "s",
        "lower",
        "input synthesis + catalog write (+ cluster spawn): everything before "
        "the first timed operation; set up three times, median",
        0.25,
    ),
    Metric("catalog_load_s", "s", "lower", "load_catalog(dir): CSV parse", 0.15),
    Metric("build_s", "s", "lower", "Corpus.build_index(...)", 0.25),
    Metric("save_s", "s", "lower", "CorpusIndex.save to a fresh directory", 0.25),
    Metric("load_s", "s", "lower", "CorpusIndex.load", 0.15),
    Metric(
        "query_s",
        "s",
        "lower",
        "warm all-pairs CorpusIndex.query (1000 permutations, adaptive, seed 0)",
        0.25,
    ),
    Metric(
        "query_one_s",
        "s",
        "lower",
        "single-data-set query (datasets1=[x]): mean over the round's data sets, "
        "median over rounds",
        0.25,
    ),
    Metric(
        "cold_query_s",
        "s",
        "lower",
        "fresh-process `repro query --index IDX --find X`: interpreter + import "
        "+ load + first query",
        0.15,
    ),
    Metric(
        "update_s",
        "s",
        "lower",
        "CorpusIndex.update with one data set's content changed",
        0.20,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "driver ru_maxrss when the timed loop ends", 0.15
    ),
    Metric(
        "index_bytes_per_raw_byte",
        "ratio",
        "lower",
        "disk_usage(index).total_bytes / IndexStats.raw_bytes (paper section 5.4)",
        0.10,
    ),
)


_ENGINE_OPS = ("build", "query")

PER_LAYER: tuple[Metric, ...] = (
    Metric("data.catalog.load_s", "s", "lower", "traced load_catalog, median"),
    Metric("data.catalog.records", "count", "lower", "records parsed per load"),
    Metric("data.aggregation.busy_s", "s", "lower", "aggregate() inside one build"),
    Metric("data.aggregation.calls", "count", "lower", "aggregate() calls per build"),
    Metric(
        "data.aggregation.records_in",
        "count",
        "lower",
        "records scanned by aggregate() per build (each partition rescans)",
    ),
    Metric(
        "core.scalar_function.busy_s",
        "s",
        "lower",
        "ScalarFunction.from_aggregated inside one build",
    ),
    Metric("core.merge_tree.busy_s", "s", "lower", "join + split sweeps inside one build"),
    Metric("core.merge_tree.calls", "count", "lower", "sweeps per build"),
    Metric("core.merge_tree.vertices", "count", "lower", "vertices swept per build"),
    Metric(
        "core.features.self_s",
        "s",
        "lower",
        "FeatureExtractor.extract minus its merge-tree sweeps, per build",
    ),
    Metric("core.features.calls", "count", "lower", "extract() calls per build"),
    Metric(
        "core.corpus.build_self_s",
        "s",
        "lower",
        "build_index wall minus engine run minus fingerprinting",
    ),
    Metric(
        "core.corpus.query_self_s",
        "s",
        "lower",
        "all-pairs query wall minus engine run minus enumeration",
    ),
    Metric(
        "core.corpus.query_one_p90_s",
        "s",
        "lower",
        "90th percentile of the run's single-data-set queries; per-layer "
        "because a run has too few samples beyond it to gate on",
    ),
    Metric("core.operator.enumerate_s", "s", "lower", "enumerate_pair_tasks per query"),
    Metric(
        "core.operator.evaluate_self_s",
        "s",
        "lower",
        "evaluate_pair_chunk minus scoring minus significance, per query",
    ),
    Metric("core.operator.pair_tasks", "count", "lower", "function pairs enumerated"),
    Metric("core.operator.n_evaluated", "count", "lower", "QueryResult.n_evaluated"),
    Metric("core.operator.n_candidates", "count", "lower", "QueryResult.n_candidates"),
    Metric("core.operator.n_significant", "count", "higher", "QueryResult.n_significant"),
    Metric("core.operator.candidate_ratio", "ratio", "lower", "n_candidates / n_evaluated"),
    Metric("core.relationship.score_s", "s", "lower", "evaluate_features per query"),
    Metric("core.relationship.calls", "count", "lower", "evaluate_features calls"),
    Metric("core.significance.busy_s", "s", "lower", "significance_batch per query"),
    Metric("core.significance.batches", "count", "lower", "significance_batch calls"),
    Metric("core.significance.requests", "count", "lower", "pairs tested per query"),
    Metric(
        "core.significance.permutations_run",
        "count",
        "lower",
        "sum of SignificanceResult.n_permutations per query",
    ),
    Metric(
        "core.significance.permutation_ratio",
        "ratio",
        "lower",
        "permutations run / requested (useful work saved by adaptive stopping)",
    ),
    *(
        metric
        for op in _ENGINE_OPS
        for metric in (
            Metric(f"mapreduce.engine.{op}_run_s", "s", "lower", f"Engine.run in one {op}"),
            Metric(f"mapreduce.engine.{op}_tasks", "count", "lower", "map + reduce tasks"),
            Metric(
                f"mapreduce.engine.{op}_task_busy_s",
                "s",
                "lower",
                "JobStats sum of task seconds",
            ),
            Metric(f"mapreduce.engine.{op}_shuffle_s", "s", "lower", "JobStats shuffle"),
            Metric(
                f"mapreduce.engine.{op}_self_s",
                "s",
                "lower",
                "run wall minus (task busy + shuffle) / n_workers: dispatch, "
                "transport and imbalance",
            ),
            Metric(
                f"mapreduce.engine.{op}_speedup",
                "ratio",
                "higher",
                f"serial {op} wall / this workload's {op} wall (base: same "
                "corpus, serial executor, same process)",
            ),
            Metric(
                f"mapreduce.engine.{op}_task_inflation",
                "ratio",
                "lower",
                "task busy here / task busy of the serial base",
            ),
            Metric(
                f"mapreduce.engine.{op}_straggler_ratio",
                "ratio",
                "lower",
                "slowest map task / median map task",
            ),
            Metric(
                f"mapreduce.shm.{op}_dumps_s",
                "s",
                "lower",
                "shm.dumps (task pickling) on the driver, process executor only",
            ),
            Metric(
                f"mapreduce.shm.{op}_payload_bytes",
                "count",
                "lower",
                "pickled task bytes shipped to the pool",
            ),
            Metric(
                f"distributed.coordinator.{op}_run_s",
                "s",
                "lower",
                "Coordinator.run_job",
            ),
            Metric(
                f"distributed.coordinator.{op}_shuffle_s",
                "s",
                "lower",
                "streaming-shuffle fold time",
            ),
            Metric(
                f"distributed.coordinator.{op}_steals",
                "count",
                "lower",
                "steal grants (RunReport.worker_steals)",
            ),
            Metric(
                f"distributed.coordinator.{op}_task_balance",
                "ratio",
                "higher",
                "fewest / most tasks completed by a worker",
            ),
            Metric(
                f"distributed.dataplane.{op}_artifacts",
                "count",
                "lower",
                "arrays promoted to spool artifacts",
            ),
            Metric(
                f"distributed.dataplane.{op}_served_bytes",
                "count",
                "lower",
                "artifact bytes served over worker sockets",
            ),
        )
    ),
    Metric(
        "distributed.coordinator.retries",
        "count",
        "lower",
        "worker-loss retries over the whole run (expected 0)",
    ),
    Metric(
        "distributed.dataplane.fetched_bytes",
        "count",
        "lower",
        "fleet counter repro.dataplane.fetched_bytes per engine run",
    ),
    Metric(
        "distributed.dataplane.mapped",
        "count",
        "higher",
        "fleet counter repro.dataplane.mapped (spool mmaps) per engine run",
    ),
    Metric("distributed.cluster.spawn_s", "s", "lower", "entering local_cluster(2)"),
    Metric("distributed.cluster.teardown_s", "s", "lower", "leaving local_cluster(2)"),
    Metric("persist.save_s", "s", "lower", "traced CorpusIndex.save, median"),
    Metric("persist.load_s", "s", "lower", "traced CorpusIndex.load, median"),
    Metric("persist.bytes", "count", "lower", "disk_usage(index).total_bytes"),
    Metric("persist.files", "count", "lower", "partition files + manifest"),
    Metric("persist.load_mb_per_s", "MB/s", "higher", "persist.bytes / persist.load_s"),
    Metric(
        "incremental.fingerprint_s",
        "s",
        "lower",
        "fingerprints_for_inputs inside one update (also inside every build)",
    ),
    Metric("incremental.plan_s", "s", "lower", "plan_update minus fingerprinting"),
    Metric("incremental.apply_s", "s", "lower", "apply_update"),
    Metric("incremental.noop_s", "s", "lower", "update when nothing changed"),
    Metric("incremental.partitions_rebuilt", "count", "lower", "UpdateReport.n_rebuilt"),
    Metric("incremental.partitions_reused", "count", "higher", "UpdateReport.n_reused"),
    Metric("incremental.bytes_rewritten", "count", "lower", "UpdateReport.bytes_rewritten"),
    Metric("cli.startup_s", "s", "lower", "`repro --help`, median of 3"),
    Metric(
        "cli.first_query_penalty_s",
        "s",
        "lower",
        "first all-pairs query of the process minus the warm median",
    ),
    Metric(
        "obs.trace_overhead_ratio",
        "ratio",
        "lower",
        "(build + query) wall under obs.start_trace / without",
    ),
    Metric(
        "ledger.probe_overhead_ratio",
        "ratio",
        "lower",
        "sum of operation medians with probes / without (alternating rounds)",
    ),
    Metric(
        "mapreduce.engine.blas_default_ratio",
        "ratio",
        "lower",
        "urban_process all-pairs query with the BLAS pin removed / with it, "
        "median of 5",
    ),
    Metric("mapreduce.engine.blas_default_ratio_min", "ratio", "lower", "min of the 5"),
    Metric("mapreduce.engine.blas_default_ratio_max", "ratio", "lower", "max of the 5"),
    Metric("ledger.traced_build_s", "s", "lower", "build median of the probed rounds"),
    Metric("ledger.traced_query_s", "s", "lower", "query median of the probed rounds"),
    Metric("ledger.traced_update_s", "s", "lower", "update median of the probed rounds"),
    Metric(
        "ledger.build_coverage_ratio",
        "ratio",
        "higher",
        "share of the traced build attributed below core.corpus",
    ),
    Metric(
        "ledger.query_coverage_ratio",
        "ratio",
        "higher",
        "share of the traced query attributed below core.corpus",
    ),
    Metric(
        "ledger.metrics_null",
        "count",
        "lower",
        "per-layer metrics that read null because a probe was broken",
    ),
)

E2E_NAMES = tuple(m.name for m in END_TO_END)
LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BOUNDS = {m.name: m.bound for m in END_TO_END}


def benchmark_json() -> dict:
    """The contract file, exactly the keys the driver expects."""
    return {
        "command": ["python3", "-m", "ledger"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
