"""CI observability gate: the traced quickstart pipeline must tell the truth.

Runs the quickstart CLI pipeline (``simulate`` → ``index`` → ``query``) as
real ``python -m repro`` subprocesses with ``REPRO_TRACE`` and
``REPRO_LOG_JSON`` set — the same knobs an operator would export — then
validates everything the subsystem promises:

* every trace file is well-formed (Chrome ``traceEvents`` or JSONL), spans
  cover at least 90% of the command's wall time, and the Chrome variant
  embeds a metrics snapshot;
* every stderr log line is one parseable JSON object with level/logger/
  message fields (no stray prints allowed on the hot paths);
* ``repro stats`` renders both a trace file and an index directory.

Then the **live plane** gets the same treatment on a real 3-worker
localhost cluster: the in-process exporter is started, the pipeline's
index build + query run on the cluster while a background poller scrapes
``/metrics`` mid-run, and the gate asserts that the scrape obeys a
strict OpenMetrics line grammar, that fleet-merged per-worker task
counters and the query-latency histogram are present, that ``/healthz``
reports every worker live with a heartbeat age, and that the sampling
profiler's collapsed-stack output round-trips through its parser.

All traces, captured logs, scrapes, and the profile land in ``--out`` so
the workflow can upload them as artifacts.  Any violation exits non-zero
and fails the job.

Usage::

    PYTHONPATH=src python scripts/ci_obs.py --out .ci/obs
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.obs import ENV_LOG_JSON, ENV_TRACE, configure_logging, get_logger

logger = get_logger("repro.scripts.ci_obs")

#: Coverage floor for CLI traces: the cli.<command> root span alone covers
#: the whole command, so anything below this means the lifecycle broke.
COVERAGE_FLOOR = 0.9


def fail(message: str) -> None:
    sys.exit(f"observability gate FAILED: {message}")


def run_repro(args: list[str], out: Path, name: str, trace: Path | None) -> str:
    """Run ``python -m repro ...`` traced + JSON-logged; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env[ENV_LOG_JSON] = "1"
    if trace is not None:
        env[ENV_TRACE] = str(trace)
    else:
        env.pop(ENV_TRACE, None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    (out / f"{name}.stdout").write_text(proc.stdout)
    (out / f"{name}.stderr").write_text(proc.stderr)
    if proc.returncode != 0:
        fail(f"`repro {args[0]}` exited {proc.returncode}:\n{proc.stderr}")
    check_json_log_lines(proc.stderr, name)
    return proc.stdout


def check_json_log_lines(stderr: str, name: str) -> None:
    for line in stderr.splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            fail(f"{name}: non-JSON stderr line under {ENV_LOG_JSON}: {line!r}")
        for field in ("ts", "level", "logger", "message"):
            if field not in entry:
                fail(f"{name}: log entry missing {field!r}: {line!r}")


def check_chrome_trace(path: Path, command: str) -> None:
    document = json.loads(path.read_text())
    events = document.get("traceEvents")
    if not events:
        fail(f"{path.name}: no traceEvents")
    names = {e["name"] for e in events if e.get("ph") == "X"}
    if f"cli.{command}" not in names:
        fail(f"{path.name}: missing cli.{command} root span (got {sorted(names)})")
    extra = document.get("repro", {})
    coverage = extra.get("coverage", 0.0)
    if coverage < COVERAGE_FLOOR:
        fail(f"{path.name}: spans cover {coverage:.0%} < {COVERAGE_FLOOR:.0%}")
    if "counters" not in extra.get("metrics", {}):
        fail(f"{path.name}: no embedded metrics snapshot")
    logger.info(
        "%s: %d spans, %.0f%% coverage", path.name, len(names), coverage * 100
    )


def check_jsonl_trace(path: Path, command: str) -> None:
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    if header.get("name") != command:
        fail(f"{path.name}: header names {header.get('name')!r}, not {command!r}")
    if header.get("n_spans") != len(lines) - 1:
        fail(f"{path.name}: header n_spans does not match the span lines")
    sidecar = path.with_suffix(".metrics.json")
    if not sidecar.exists():
        fail(f"{path.name}: missing metrics sidecar {sidecar.name}")
    metrics = json.loads(sidecar.read_text())
    if not any(k.startswith("repro.query.seconds") for k in metrics["histograms"]):
        fail(f"{sidecar.name}: query latency histogram absent")
    logger.info("%s: %d spans + metrics sidecar", path.name, len(lines) - 1)
    if command == "query":
        check_significance_batches([json.loads(line) for line in lines[1:]])


def check_significance_batches(spans: list[dict]) -> None:
    """A query tests its candidates in domain chunks: every
    ``significance.batch`` span says how many function pairs it held and
    how few distinct functions they shared."""
    batches = [s for s in spans if s.get("name") == "significance.batch"]
    if not batches:
        fail("query trace has no significance.batch span")
    for span in batches:
        attrs = span.get("attrs", {})
        missing = {"n_requests", "n_pairs", "n_functions"} - set(attrs)
        if missing:
            fail(f"significance.batch span lacks {sorted(missing)}: {attrs}")
        if not 0 < attrs["n_functions"] <= 2 * attrs["n_pairs"]:
            fail(f"significance.batch span counts are inconsistent: {attrs}")
    logger.info(
        "query: %d significance batches over %d candidates",
        len(batches),
        sum(s["attrs"]["n_requests"] for s in batches),
    )


#: One OpenMetrics sample line: name, optional {label="value",...}, value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (?:[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)
_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")

#: Suffixes a sample name may add to its declared family, per kind.
_FAMILY_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
}


def validate_openmetrics(text: str, name: str) -> None:
    """Strict line-grammar check of an exporter scrape.

    Every line must be a ``# TYPE`` declaration, a sample matching
    :data:`_SAMPLE_RE` whose family was declared first with a suffix legal
    for its kind, or the single terminal ``# EOF``.
    """
    if not text.endswith("# EOF\n"):
        fail(f"{name}: scrape does not end with the terminal '# EOF' line")
    families: dict[str, str] = {}
    lines = text.splitlines()
    if lines.count("# EOF") != 1:
        fail(f"{name}: exactly one '# EOF' line expected")
    for lineno, line in enumerate(lines[:-1], start=1):
        declared = _TYPE_RE.match(line)
        if declared:
            if declared.group(1) in families:
                fail(f"{name}:{lineno}: duplicate # TYPE for {declared.group(1)}")
            families[declared.group(1)] = declared.group(2)
            continue
        if line.startswith("#"):
            fail(f"{name}:{lineno}: unexpected comment line {line!r}")
        if not _SAMPLE_RE.match(line):
            fail(f"{name}:{lineno}: malformed sample line {line!r}")
        sample = line.split("{", 1)[0].split(" ", 1)[0]
        if not any(
            sample == family + suffix
            for family, kind in families.items()
            for suffix in _FAMILY_SUFFIXES[kind]
        ):
            fail(f"{name}:{lineno}: sample {sample!r} has no # TYPE family")


def _scrape(url: str) -> str | None:
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.read().decode("utf-8")
    except OSError:
        return None


def check_live_cluster(out: Path) -> None:
    """Exporter + heartbeat shipping + profiler on a real 3-host cluster."""
    from repro import obs
    from repro.core.corpus import Corpus
    from repro.distributed import local_cluster
    from repro.synth import nyc_urban_collection
    from repro.temporal.resolution import TemporalResolution

    exporter = obs.start_exporter(0)
    obs.start_profile()
    mid_run_scrapes: list[str] = []
    done = threading.Event()

    def poll() -> None:
        while not done.is_set():
            text = _scrape(f"{exporter.url}/metrics")
            if text is not None:
                mid_run_scrapes.append(text)
            done.wait(0.2)

    poller = threading.Thread(target=poll, daemon=True, name="ci-obs-poller")
    try:
        collection = nyc_urban_collection(seed=5, n_days=30, scale=0.25)
        corpus = Corpus(collection.datasets, collection.city)
        with local_cluster(3) as engine:
            poller.start()
            index = corpus.build_index(
                temporal=(TemporalResolution.DAY,), engine=engine
            )
            index.query(n_permutations=25, engine=engine)

            # Heartbeats ship metrics deltas on a 1 s cadence; give the
            # fleet registry a few beats to converge, then hold the gate.
            def tasks_counter_workers(text: str) -> set[str]:
                found = set()
                for line in text.splitlines():
                    if line.startswith("repro_worker_tasks_total{"):
                        match = re.search(r'worker="([^"]*)"', line)
                        if match:
                            found.add(match.group(1))
                return found

            required = {f"host{i}" for i in range(3)}
            deadline = time.monotonic() + 30.0
            final = ""
            while time.monotonic() < deadline:
                final = _scrape(f"{exporter.url}/metrics") or final
                if required <= tasks_counter_workers(final):
                    break
                time.sleep(0.5)
            (out / "cluster.metrics").write_text(final)
            validate_openmetrics(final, "cluster.metrics")
            missing = required - tasks_counter_workers(final)
            if missing:
                fail(
                    "per-worker repro_worker_tasks_total never arrived for "
                    f"{sorted(missing)} (heartbeat shipping broken?)"
                )
            if 'repro_query_seconds_bucket{le="' not in final:
                fail("/metrics lacks the query latency histogram buckets")

            health_text = _scrape(f"{exporter.url}/healthz")
            if health_text is None:
                fail("/healthz unreachable while the cluster is live")
            (out / "cluster.healthz.json").write_text(health_text)
            health = json.loads(health_text)
            coordinators = [
                value
                for key, value in health.get("sources", {}).items()
                if key.startswith("coordinator:")
            ]
            if len(coordinators) != 1:
                fail(f"/healthz shows {len(coordinators)} coordinators, not 1")
            workers = coordinators[0].get("workers", {})
            if len(workers) != 3:
                fail(f"/healthz shows {len(workers)} workers, not 3")
            for worker_id, worker in workers.items():
                if not worker.get("live"):
                    fail(f"/healthz reports {worker_id} not live: {worker}")
                if not isinstance(worker.get("heartbeat_age_seconds"), float):
                    fail(f"/healthz {worker_id} lacks heartbeat age: {worker}")
    finally:
        done.set()
        poller.join(timeout=5.0)
        profiler = obs.end_profile()
        obs.stop_exporter()

    if not mid_run_scrapes:
        fail("poller never scraped /metrics while the cluster was running")
    validate_openmetrics(mid_run_scrapes[0], "mid-run scrape")

    if profiler is None or profiler.samples == 0:
        fail("sampling profiler collected no samples during the cluster run")
    profile_path = out / "cluster.collapsed"
    profiler.write(profile_path)
    parsed = obs.parse_collapsed(profile_path.read_text())
    if parsed != profiler.counts():
        fail("collapsed-stack profile did not round-trip through its parser")
    logger.info(
        "live cluster OK: %d mid-run scrapes, %d workers live, "
        "%d profile samples over %d stacks",
        len(mid_run_scrapes),
        len(workers),
        profiler.samples,
        len(parsed),
    )


def main(argv: list[str] | None = None) -> None:
    configure_logging()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".ci/obs", help="artifact directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cat, idx = out / "cat", out / "idx"

    simulate = ["simulate", "--out", str(cat), "--days", "21", "--scale", "0.3"]
    simulate += ["--datasets", "taxi,weather", "--seed", "5"]
    run_repro(simulate, out, "simulate", out / "simulate.json")
    check_chrome_trace(out / "simulate.json", "simulate")

    index = ["index", "--data", str(cat), "--out", str(idx), "--temporal", "day"]
    run_repro(index, out, "index", out / "index.json")
    check_chrome_trace(out / "index.json", "index")

    query = ["query", "--index", str(idx), "--permutations", "50", "--seed", "0"]
    run_repro(query, out, "query", out / "query.jsonl")
    check_jsonl_trace(out / "query.jsonl", "query")

    stats_trace = run_repro(
        ["stats", str(out / "index.json")], out, "stats_trace", None
    )
    if "index.build" not in stats_trace:
        fail("`repro stats` on a trace did not render the span breakdown")
    stats_index = run_repro(["stats", str(idx)], out, "stats_index", None)
    if "taxi" not in stats_index:
        fail("`repro stats` on an index did not render per-dataset usage")

    stats_json = run_repro(
        ["stats", "--json", str(idx)], out, "stats_index_json", None
    )
    document = json.loads(stats_json)
    if document.get("type") != "index" or "taxi" not in document.get(
        "per_dataset_bytes", {}
    ):
        fail("`repro stats --json` did not emit the index document")

    check_live_cluster(out)

    logger.info(
        "observability gate OK: traces, logs, stats and the live plane "
        "all validated"
    )


if __name__ == "__main__":
    main()
