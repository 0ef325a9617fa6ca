"""One workload, measured in one process.

A run is closed loop with one client: this process issues the next
operation only when the previous one has returned.  Every workload repeats
the same *round* of operations, each through the program's public surface::

    catalog_load  load_catalog(dir)
    build         Corpus(...).build_index(...)
    save          CorpusIndex.save(fresh dir)         five times, back to back
    load          CorpusIndex.load(dir)
    query         loaded.query()                      all pairs, warm
    query_one     loaded.query([x]) for several x     one sample per x
    update        CorpusIndex.update(dir, corpus with one data set changed)
    cold_query    `python -m repro query --index dir --find x`, new process
    catalog_load, load, query, update                 once more each
    catalog_load                                      a third time

The first round always completes, so every metric has a sample; further
operations run while ``--seconds`` has not elapsed.  Output checks
(:mod:`ledger.oracle`) run between operations, off the clock, and mark the
operation they belong to as failed.

Untraced runs produce the end-to-end metrics and nothing else.  Traced runs
alternate rounds without and with probes (:mod:`ledger.probes`), so the
probe overhead is a like-for-like ratio, and add the off-round extras the
per-layer metrics need; :mod:`ledger.layers` turns the result into numbers.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import Corpus, CorpusIndex, Dataset, TemporalResolution, obs
from repro.data.catalog import load_catalog, save_catalog
from repro.distributed import local_cluster
from repro.persist import INDEX_MANIFEST, disk_usage

from . import env, inputs
from .oracle import index_digest, query_digest
from .probes import CORE_PROBES, DRIVER_PROBES, Installed, Span, SpanLog
from .workloads import Workload

_perf = time.perf_counter

SETUP_REPEATS = 3
SERIAL = dict(executor="serial", n_workers=1)

#: Operation -> end-to-end metric it samples.
OP_METRIC = {
    "catalog_load": "catalog_load_s",
    "build": "build_s",
    "save": "save_s",
    "load": "load_s",
    "query": "query_s",
    "query_one": "query_one_s",
    "update": "update_s",
    "cold_query": "cold_query_s",
}

_CLI_COUNTS = re.compile(r"evaluated (\d+) relationships, (\d+) significant")


@dataclass
class OpRecord:
    """One attempted operation: timing, verdict, and (traced) its span."""

    name: str
    probed: bool = False
    seconds: float | None = None
    ok: bool = True
    error: str = ""
    span: Span | None = None
    #: What the operation returned, where a per-layer metric needs it.
    detail: dict = field(default_factory=dict)


class WorkloadRun:
    """State and operations of one workload in this process."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        work_dir: Path,
        log: SpanLog | None = None,
        tiny: bool = False,
    ) -> None:
        self.w = workload
        self.tiny = tiny
        self.seed = seed
        self.resolved = 0
        self.seconds = seconds
        self.work = work_dir
        self.log = log
        self.ops: list[OpRecord] = []
        self.probes_on = False
        self.setup_seconds: list[float] = []
        self.spawn_s = 0.0
        self.teardown_s = 0.0
        self.engine_calls = 0
        self.peak_rss_mb = 0.0
        self.extras: dict[str, Any] = {}

        self.query_kwargs = dict(
            n_permutations=workload.n_permutations,
            significance_mode="adaptive",
            seed=0,
        )
        self.temporal = (
            None
            if workload.temporal is None
            else tuple(TemporalResolution(v) for v in workload.temporal)
        )
        self._cluster: Any = None
        self._cluster_stack: contextlib.ExitStack | None = None
        self.cat_dir: Path | None = None
        self.expected_records = 0
        self.expected_datasets = 0
        self.alt_dataset: Dataset | None = None
        self.changed_name = ""

        self.datasets: list[Dataset] | None = None
        self.city: Any = None
        self.index: CorpusIndex | None = None
        self.loaded: CorpusIndex | None = None
        self.idx_dir: Path | None = None
        self.update_dir: Path | None = None
        self.update_holds_alt = False
        self.n_saves = 0
        self.n_query_one_batches = 0
        self.build_digest = ""
        self.query_digests: dict[str, str] = {}
        self.query_counts: dict[str, tuple[int, int, int]] = {}
        self.warmup_seconds: float | None = None

    # -- inputs ------------------------------------------------------------

    def resolve_inputs(self) -> None:
        """Off the clock: see :func:`ledger.inputs.resolve`."""
        self.resolved = inputs.resolve(self.w, self.seed)

    def setup(self, slot: int) -> None:
        """Make the inputs from the seed: synthesize, write the catalog,
        spawn the cluster."""
        datasets, city = inputs.synthesize(self.w, self.seed, self.resolved)
        self.cat_dir = self.work / f"catalog{slot}"
        save_catalog(self.cat_dir, datasets, city)
        self.expected_datasets = len(datasets)
        self.expected_records = inputs.total_records(datasets)
        if self.w.executor == "cluster":
            start = _perf()
            self._cluster_stack = contextlib.ExitStack()
            self._cluster = self._cluster_stack.enter_context(
                local_cluster(env.PARALLEL_WORKERS)
            )
            self.spawn_s = _perf() - start

    def teardown_inputs(self) -> None:
        """Undo :meth:`setup` (off the clock)."""
        if self._cluster_stack is not None:
            start = _perf()
            self._cluster_stack.close()
            self.teardown_s = _perf() - start
            self._cluster_stack = None
            self._cluster = None
        if self.cat_dir is not None:
            shutil.rmtree(self.cat_dir, ignore_errors=True)

    def engine_kwargs(self) -> dict:
        """How this workload's operations reach their executor."""
        self.engine_calls += 1
        if self.w.executor == "cluster":
            return {"engine": self._cluster}
        return {"executor": self.w.executor, "n_workers": self.w.n_workers}

    # -- bookkeeping -------------------------------------------------------

    def timed(self, name: str, fn: Callable[[], Any]) -> tuple[OpRecord, Any]:
        """Run one operation on the clock; an exception fails the operation
        and the run goes on."""
        rec = OpRecord(name, probed=self.probes_on)
        self.ops.append(rec)
        span = (
            self.log.open("op." + name)
            if self.log is not None and self.probes_on
            else None
        )
        result = None
        start = _perf()
        try:
            result = fn()
            rec.seconds = _perf() - start
        except Exception:  # the benchmark must report the failure, not die of it
            rec.ok = False
            rec.error = traceback.format_exc()
            print(f"ledger: {name} raised:\n{rec.error}", file=sys.stderr)
        finally:
            if span is not None:
                assert self.log is not None
                self.log.close(span)
                rec.span = span
        return rec, result

    def check(self, rec: OpRecord, condition: bool, message: str) -> None:
        if rec.ok and not condition:
            rec.ok = False
            rec.error = message
            print(f"ledger: {rec.name} failed a check: {message}", file=sys.stderr)

    def samples(self, name: str, probed: bool | None = None) -> list[float]:
        return [
            r.seconds
            for r in self.ops
            if r.name == name
            and r.ok
            and r.seconds is not None
            and (probed is None or r.probed == probed)
        ]

    # -- operations --------------------------------------------------------

    def op_catalog_load(self) -> None:
        rec, out = self.timed("catalog_load", lambda: load_catalog(self.cat_dir))
        if not rec.ok:
            return
        self.datasets, self.city = out
        self.check(
            rec,
            len(self.datasets) == self.expected_datasets
            and sum(d.n_records for d in self.datasets) == self.expected_records,
            "catalog round trip lost data sets or records",
        )
        if self.alt_dataset is None:
            self.alt_dataset = inputs.alternate(self.datasets)
            self.changed_name = self.alt_dataset.name

    def _corpus(self, alternate: bool = False) -> Corpus:
        datasets = self.datasets or []
        if alternate:
            datasets = [
                self.alt_dataset if d.name == self.changed_name else d
                for d in datasets
            ]
        return Corpus(datasets, self.city)

    def _build(self, engine: dict, alternate: bool = False) -> CorpusIndex:
        return self._corpus(alternate).build_index(temporal=self.temporal, **engine)

    def op_build(self) -> None:
        rec, index = self.timed("build", lambda: self._build(self.engine_kwargs()))
        if not rec.ok:
            return
        self.index = index
        digest = index_digest(index)
        if not self.build_digest:
            self.build_digest = digest
        self.check(rec, bool(index.partition_stats), "index has no partitions")
        self.check(
            rec, digest == self.build_digest, "rebuild of the same corpus differs"
        )

    def op_save(self) -> None:
        target = self.work / f"index{self.n_saves}"
        self.n_saves += 1
        rec, _ = self.timed(
            "save", lambda: self.index.save(str(target), **self.engine_kwargs())
        )
        if not rec.ok:
            return
        self.check(rec, (target / INDEX_MANIFEST).is_file(), "no manifest written")
        if self.idx_dir is None:
            self.idx_dir = target
            self.update_dir = self.work / "index_update"
            shutil.copytree(target, self.update_dir)
        else:
            shutil.rmtree(target, ignore_errors=True)

    def op_load(self) -> None:
        rec, loaded = self.timed(
            "load",
            lambda: CorpusIndex.load(str(self.idx_dir), **self.engine_kwargs()),
        )
        if not rec.ok:
            return
        self.check(
            rec,
            index_digest(loaded) == self.build_digest,
            "loaded index differs from the index it was saved from",
        )
        first = self.loaded is None
        self.loaded = loaded
        if first:
            self._warm_up()

    def _query(self, datasets1: list[str] | None, **engine: Any) -> Any:
        return self.loaded.query(datasets1, **self.query_kwargs, **engine)

    def _check_query(self, rec: OpRecord, key: str, result: Any) -> None:
        digest = query_digest(result)
        self.query_counts[key] = (
            result.n_evaluated,
            result.n_candidates,
            result.n_significant,
        )
        self.check(
            rec,
            self.query_digests.setdefault(key, digest) == digest,
            f"same-seed query {key!r} is not repeatable",
        )
        # (--tiny corpora span three days: too short for any relationship.)
        if key == "*" and self.w.corpus != "open" and not self.tiny:
            self.check(
                rec,
                result.n_significant > 0,
                "no significant relationship on the urban corpus",
            )

    def _all_pairs(self, op_name: str) -> OpRecord:
        rec, result = self.timed(
            op_name, lambda: self._query(None, **self.engine_kwargs())
        )
        if rec.ok:
            self._check_query(rec, "*", result)
        return rec

    def _warm_up(self) -> None:
        """First all-pairs query of the process: fills the caches.  Not an
        end-to-end sample; its excess over a warm query is
        ``cli.first_query_penalty_s``."""
        self.warmup_seconds = self._all_pairs("warm_up").seconds

    def op_query(self) -> None:
        self._all_pairs("query")

    def query_one_names(self) -> list[str]:
        names = list(self.loaded.datasets) if self.loaded else []
        n = min(self.w.n_query_one, len(names))
        if n == 0:
            return []
        chosen = [names[(i * len(names)) // n] for i in range(n)]
        # The cold CLI query is checked against the in-process query of the
        # same data set, so that one is always part of the round.
        if self.changed_name in names and self.changed_name not in chosen:
            chosen[-1] = self.changed_name
        return chosen

    def op_query_one(self) -> None:
        self.n_query_one_batches += 1
        for name in self.query_one_names():
            rec, result = self.timed(
                "query_one", lambda: self._query([name], **self.engine_kwargs())
            )
            rec.detail = {"batch": self.n_query_one_batches}
            if rec.ok:
                self._check_query(rec, name, result)

    def query_one_seconds(self) -> float:
        """Mean over one batch's data sets, median over batches: the data
        sets differ a hundredfold in cost, so a median over single queries
        would report whichever data set happens to sit in the middle."""
        batches: dict[int, list[float]] = {}
        for rec in self.ops:
            if rec.name == "query_one" and rec.ok and rec.seconds is not None:
                batches.setdefault(rec.detail["batch"], []).append(rec.seconds)
        means = [statistics.fmean(v) for v in batches.values()]
        return statistics.median(means) if means else 0.0

    def _update(self, op_name: str, alternate: bool) -> tuple[OpRecord, Any]:
        return self.timed(
            op_name,
            lambda: CorpusIndex.update(
                str(self.update_dir),
                self._corpus(alternate),
                temporal=self.temporal,
                **self.engine_kwargs(),
            ),
        )

    def op_update(self) -> None:
        to_alt = not self.update_holds_alt
        rec, report = self._update("update", to_alt)
        if not rec.ok:
            return
        self.update_holds_alt = to_alt
        rec.detail = {
            "n_rebuilt": report.n_rebuilt + report.n_added,
            "n_reused": report.n_reused,
            "bytes_rewritten": report.bytes_rewritten,
        }
        self.check(rec, report.applied, "update was not applied")
        self.check(
            rec,
            report.n_rebuilt + report.n_added > 0 and report.n_reused > 0,
            "update of one data set must rebuild some partitions and reuse others",
        )

    def _cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )

    def op_cold_query(self) -> None:
        name = self.changed_name
        args = ["query", "--index", str(self.idx_dir), "--find", name]
        args += ["--permutations", str(self.w.n_permutations)]
        # The CLI has no way to join this process's private cluster, so the
        # cluster workload measures the serial CLI like urban_serial does.
        if self.w.executor in ("thread", "process"):
            args += ["--executor", self.w.executor, "--workers", str(self.w.n_workers)]
        rec, done = self.timed("cold_query", lambda: self._cli(*args))
        if not rec.ok:
            return
        self.check(rec, done.returncode == 0, f"CLI exited {done.returncode}")
        if name not in self.query_counts:
            result = self._query([name], **SERIAL)
            self._check_query(rec, name, result)
        match = _CLI_COUNTS.search(done.stdout)
        expected = self.query_counts.get(name)
        self.check(
            rec,
            match is not None
            and expected is not None
            and (int(match.group(1)), int(match.group(2)))
            == (expected[0], expected[2]),
            "CLI query disagrees with the in-process query",
        )

    #: One round.  Every operation once, then once more those whose single
    #: samples are noisiest relative to their bound (sub-second, I/O or cache
    #: sensitive), so that a run that fits one round still reports a median.
    #: The five saves are back to back: a save that follows other work is
    #: 20% slower than one that follows a save, and a median over a mix of
    #: the two flips between them from run to run.
    ROUND = (
        "catalog_load",
        "build",
        "save",
        "save",
        "save",
        "save",
        "save",
        "load",
        "query",
        "query_one",
        "update",
        "cold_query",
        "catalog_load",
        "load",
        "query",
        "update",
        "catalog_load",
    )

    def round(self, deadline: float | None = None) -> bool:
        """One round; with a ``deadline`` it stops between operations once
        the time is up.  Returns False when it stopped early."""
        for name in self.ROUND:
            if deadline is not None and _perf() >= deadline:
                return False
            try:
                getattr(self, "op_" + name)()
            except Exception:  # an off-the-clock check tripped over a failed op
                rec = self.ops[-1] if self.ops else OpRecord(name)
                self.check(rec, False, traceback.format_exc())
        return True

    # -- the serial reference (parallel workloads) --------------------------

    def reference_pass(self, probed: bool) -> None:
        """Serial build + all-pairs query of the same corpus, in this
        process, after the timed loop (so a forked pool never inherits its
        warm caches).  Unprobed it is the oracle the parallel digests are
        checked against and the base of the speed-up; probed (traced run) it
        measures the layers inside the tasks on one core."""
        self.probes_on = probed
        suffix = ".probed" if probed else ""
        try:
            rec_b, index = self.timed("ref.build" + suffix, lambda: self._build(SERIAL))
            if not rec_b.ok:
                return
            rec_b.detail = {"job_stats": index.job_stats}
            if not probed:
                # On the process and cluster workloads this process has not
                # run a query itself yet: warm its caches like _warm_up did
                # for the workers.
                index.query(**self.query_kwargs, **SERIAL)
            rec_q, result = self.timed(
                "ref.query" + suffix, lambda: index.query(**self.query_kwargs, **SERIAL)
            )
            if rec_q.ok:
                rec_q.detail = {"job_stats": result.job_stats}
        finally:
            self.probes_on = False
        if probed:
            return
        first_build = next((r for r in self.ops if r.name == "build"), rec_b)
        self.check(
            first_build,
            index_digest(index) == self.build_digest,
            f"{self.w.executor} index differs from the serial oracle",
        )
        if rec_q.ok:
            first_query = next((r for r in self.ops if r.name == "query"), rec_q)
            self.check(
                first_query,
                query_digest(result) == self.query_digests.get("*"),
                f"{self.w.executor} query differs from the serial oracle",
            )

    # -- whole runs --------------------------------------------------------

    def run_untraced(self) -> dict[str, float]:
        """Set up (three times), loop for ``seconds``, check, and return the
        end-to-end metrics."""
        self.resolve_inputs()
        repeats = 1 if self.tiny else SETUP_REPEATS
        for slot in range(repeats):
            start = _perf()
            self.setup(slot)
            self.setup_seconds.append(_perf() - start)
            if slot < repeats - 1:
                self.teardown_inputs()
        deadline = _perf() + self.seconds
        self.round()
        while self.round(deadline):
            pass
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.w.is_parallel:
            self.reference_pass(probed=False)
        metrics = self.end_to_end()
        self.teardown_inputs()
        return metrics

    def end_to_end(self) -> dict[str, float]:
        def median(name: str) -> float:
            values = self.samples(name)
            return statistics.median(values) if values else 0.0

        out = {metric: median(op) for op, metric in OP_METRIC.items()}
        out["query_one_s"] = self.query_one_seconds()
        out["setup_s"] = statistics.median(self.setup_seconds)
        out["peak_rss_mb"] = self.peak_rss_mb
        ratio = 0.0
        if self.idx_dir is not None and self.index is not None:
            ratio = disk_usage(self.idx_dir).total_bytes / max(
                1, self.index.stats.raw_bytes
            )
        out["index_bytes_per_raw_byte"] = ratio
        return out

    def run_traced(self) -> "WorkloadRun":
        """Alternate unprobed and probed rounds, then the off-round extras.
        :func:`ledger.layers.derive` reads the result."""
        assert self.log is not None
        self.resolve_inputs()
        self.setup(0)
        installed = Installed(self.log)
        probes = DRIVER_PROBES if self.w.is_parallel else CORE_PROBES + DRIVER_PROBES
        deadline = _perf() + self.seconds
        rounds = 0
        while rounds < 2 or _perf() < deadline:
            self.round()
            installed.install(probes)
            self.probes_on = True
            try:
                self.round()
                if rounds == 0:
                    self._noop_update()
            finally:
                self.probes_on = False
                installed.uninstall()
            rounds += 2
        self.extras["broken"] = dict(installed.broken)

        self._obs_overhead()
        if self.w.is_parallel:
            self.reference_pass(probed=False)
            installed.install(CORE_PROBES + DRIVER_PROBES)
            try:
                self.reference_pass(probed=True)
            finally:
                installed.uninstall()
            self.extras["broken"].update(installed.broken)
        self._check_update_equals_rebuild()
        self._cli_startup()
        if self.w.name == "urban_process":
            self._blas_probe()
        if self.idx_dir is not None:
            self.extras["persist_bytes"] = disk_usage(self.idx_dir).total_bytes
            self.extras["persist_files"] = sum(
                1 for p in self.idx_dir.rglob("*") if p.is_file()
            )
        if self._cluster is not None:
            # Workers ship their counters on heartbeats; wait one out (the
            # arrays of a --tiny corpus are too small to be shipped at all).
            time.sleep(0.0 if self.tiny else 1.2)
            snapshot = self._cluster.coordinator.fleet.snapshot()
            self.extras["fleet_counters"] = snapshot.get("counters", {})
        self.teardown_inputs()
        return self

    def _noop_update(self) -> None:
        rec, report = self._update("update_noop", self.update_holds_alt)
        if rec.ok:
            self.check(rec, report.noop, "update with nothing changed was not a no-op")

    def _obs_overhead(self) -> None:
        """Build + query once under the program's own tracing."""
        obs.start_trace("ledger")
        try:
            self.timed("obs.build", lambda: self._build(self.engine_kwargs()))
            self.timed("obs.query", lambda: self._query(None, **self.engine_kwargs()))
        finally:
            obs.end_trace()

    def _check_update_equals_rebuild(self) -> None:
        def digests() -> tuple[str, str]:
            rebuilt = self._build(SERIAL, alternate=self.update_holds_alt)
            updated = CorpusIndex.load(str(self.update_dir), **SERIAL)
            return index_digest(updated), index_digest(rebuilt)

        rec, both = self.timed("check.update_equals_rebuild", digests)
        if rec.ok:
            self.check(
                rec,
                both[0] == both[1],
                "updated index differs from a from-scratch rebuild",
            )

    def _cli_startup(self) -> None:
        for _ in range(1 if self.tiny else 3):
            rec, done = self.timed("cli.startup", lambda: self._cli("--help"))
            if rec.ok:
                self.check(rec, done.returncode == 0, "`repro --help` failed")

    def _blas_probe(self) -> None:
        """The same all-pairs process-pool query in a child whose BLAS pin
        is removed.  Informational: the number is bimodal by nature."""
        n = 1 if self.tiny else 5
        child_env = dict(os.environ, **{env.UNPINNED_VAR: "1"})  # see env.bootstrap
        cmd = [
            sys.executable,
            "-m",
            "ledger",
            "--workload",
            self.w.name,
            "--seed",
            str(self.seed),
            "--blas-child",
            str(n),
        ] + (["--tiny"] if self.tiny else [])
        rec, done = self.timed(
            "blas_probe",
            lambda: subprocess.run(
                cmd,
                cwd=env.ROOT,
                env=child_env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=170,
            ),
        )
        if rec.ok:
            self.check(rec, done.returncode == 0, "BLAS probe child failed")
        if rec.ok:
            self.extras["blas_unpinned_query_s"] = json.loads(
                done.stdout.strip().splitlines()[-1]
            )


def blas_child(run: WorkloadRun, n: int) -> list[float]:
    """Body of the unpinned child: build once, time ``n`` warm queries."""
    run.resolve_inputs()
    run.setup(0)
    run.op_catalog_load()
    run.op_build()
    run.loaded = run.index
    run._warm_up()
    for _ in range(n):
        run.op_query()
    return run.samples("query")
