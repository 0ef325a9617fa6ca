"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the zero-to-discovery path:

* ``simulate`` — generate the synthetic NYC Urban replica and write it to a
  catalog directory (CSV files + JSON metadata, §5.1's input contract).
* ``index`` — build the Data Polygamy index for a catalog once and persist
  it to disk (``--out idx/``), so later queries skip re-indexing.  Refuses
  to clobber an existing index unless ``--force`` is given.
* ``update`` — incrementally reconcile an existing index with a catalog:
  fingerprint the catalog, rebuild only the (data set, resolution)
  partitions whose inputs changed, splice in the rest untouched.
  ``--dry-run`` prints the keep/rebuild/add/drop plan without writing.
* ``query`` — run a relationship query against either a catalog
  (``--data``, index built on the fly) or a persisted index (``--index``)
  and print the significant relationships.
* ``demo`` — simulate, index and query in one go (small scale).
* ``worker`` — run one cluster worker daemon
  (``repro worker --connect HOST:PORT``); a driver started with
  ``--executor cluster`` coordinates every connected worker.
* ``stats`` — inspect a persisted index directory (disk usage per
  component) or a trace file written by ``--trace`` (embedded run reports
  plus a per-worker / per-phase time breakdown).

Observability (see ``docs/OBSERVABILITY.md``): ``repro --trace OUT.json
<command> ...`` (or ``$REPRO_TRACE=OUT.json``) records every engine,
scheduler and worker span of the command into a Chrome/Perfetto trace —
a ``.jsonl`` suffix selects the line-per-span format instead, with the
metrics snapshot in a ``.metrics.json`` sibling.  ``$REPRO_LOG_JSON=1``
switches the ``repro.*`` logger hierarchy to JSON-lines on stderr.

``index``, ``update``, ``query`` and ``demo`` accept ``--workers N`` and
``--executor {serial,thread,process,cluster}`` to fan indexing,
relationship evaluation and index I/O out through the map-reduce engine
(§5.4); ``thread`` overlaps the NumPy-heavy parts, ``process`` also
parallelizes the pure-Python merge-tree sweeps (payloads travel through
the shared-memory plane), and ``cluster`` dispatches to ``repro worker``
daemons over TCP (the coordinator binds ``$REPRO_CLUSTER``, default
``127.0.0.1:7077``; large arrays travel through the spool/socket artifact
plane).  Results are bit-identical to the serial default under a fixed
seed — including queries against a loaded index.  Flags left unset fall
back to ``$REPRO_EXECUTOR`` / ``$REPRO_WORKERS``.

``query`` and ``demo`` also accept ``--significance-mode
{exact,batched,adaptive}`` (default ``adaptive``): the fast modes batch
the Monte Carlo permutation tests across function pairs and, for
``adaptive``, stop each test as soon as its significance decision at α is
settled — same decisions as ``exact``, an order of magnitude faster (see
:mod:`repro.core.significance`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import obs
from .core.clause import Clause
from .core.corpus import Corpus, CorpusIndex
from .core.significance import SIGNIFICANCE_MODES
from .data.catalog import load_catalog, save_catalog
from .mapreduce.engine import ALL_EXECUTORS, default_engine
from .synth import nyc_urban_collection
from .temporal.resolution import TemporalResolution


def _cmd_simulate(args: argparse.Namespace) -> int:
    subset = tuple(args.datasets.split(",")) if args.datasets else None
    coll = nyc_urban_collection(
        seed=args.seed, n_days=args.days, scale=args.scale, subset=subset
    )
    path = save_catalog(args.out, coll.datasets, coll.city)
    total = sum(ds.n_records for ds in coll.datasets)
    print(f"wrote {len(coll.datasets)} data sets ({total:,} records) to {path.parent}")
    return 0


def _parse_temporal(spec: str) -> tuple[TemporalResolution, ...] | None:
    if not spec:
        return None
    return tuple(TemporalResolution(t.strip()) for t in spec.split(","))


def _cmd_index(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .persist import INDEX_MANIFEST, disk_usage

    # Resolve exactly as save_index will, so "~/idx" cannot slip past the
    # guard and then clobber $HOME/idx.
    out = Path(args.out).expanduser().resolve()
    if (out / INDEX_MANIFEST).exists() and not args.force:
        # Clobbering an index that took hours to build should never be the
        # silent default; the incremental path is almost always what's meant.
        print(
            f"error: {args.out} already contains an index; run "
            f"`repro update --data {args.data} --index {args.out}` to "
            "update it incrementally, or pass --force to rebuild from "
            "scratch",
            file=sys.stderr,
        )
        return 2
    engine = default_engine(args.workers, args.executor)
    datasets, city = load_catalog(args.data)
    print(f"loaded {len(datasets)} data sets from {args.data}")
    corpus = Corpus(datasets, city)
    index = corpus.build_index(temporal=_parse_temporal(args.temporal), engine=engine)
    print(
        f"indexed {index.stats.n_scalar_functions} scalar functions "
        f"in {index.stats.scalar_seconds + index.stats.feature_seconds:.1f}s "
        f"({engine.executor}, {engine.n_workers} worker(s))"
    )
    index.save(args.out, engine=engine)
    usage = disk_usage(args.out)
    print(
        f"saved index to {args.out}: {usage.total_bytes:,} bytes on disk "
        f"({usage.function_bytes:,} functions, {usage.feature_bytes:,} "
        f"packed features)"
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .core.corpus import scope_whitelists
    from .incremental import apply_update, plan_update
    from .persist import read_manifest

    datasets, city = load_catalog(args.data)
    print(f"loaded {len(datasets)} data sets from {args.data}")
    corpus = Corpus(datasets, city)

    # Unless told otherwise, maintain the scope the index was built with —
    # recorded in the manifest, so "all viable" survives as "all viable"
    # (newly viable resolutions join, exactly like a fresh build) and a
    # `--temporal day` restriction survives as itself.
    manifest = read_manifest(args.index)
    temporal = _parse_temporal(args.temporal)
    spatial, recorded_temporal = scope_whitelists(manifest["scope"])
    if temporal is None:
        temporal = recorded_temporal
    spatial_label = ", ".join(s.value for s in spatial) if spatial else "all viable"
    temporal_label = ", ".join(t.value for t in temporal) if temporal else "all viable"
    print(
        f"maintaining resolutions: spatial={spatial_label}; "
        f"temporal={temporal_label}"
    )

    plan = plan_update(args.index, corpus, spatial=spatial, temporal=temporal)
    if args.dry_run:
        print(plan.describe())
        return 0
    counts = plan.counts
    print(
        f"update plan: {counts['keep']} keep, {counts['rebuild']} rebuild, "
        f"{counts['add']} add, {counts['drop']} drop"
    )
    engine = default_engine(args.workers, args.executor)
    report = apply_update(
        args.index,
        corpus,
        spatial=spatial,
        temporal=temporal,
        engine=engine,
        plan=plan,
    )
    print(report.describe())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = default_engine(args.workers, args.executor)
    temporal = _parse_temporal(args.temporal)
    if args.index:
        start = time.perf_counter()
        index = CorpusIndex.load(args.index, engine=engine)
        print(
            f"loaded index from {args.index} "
            f"({index.stats.n_scalar_functions} scalar functions) "
            f"in {time.perf_counter() - start:.2f}s — re-indexing skipped"
        )
        if temporal:
            # A persisted index only carries the resolutions it was built
            # with; silently evaluating nothing would look like a real
            # "no relationships" result.
            available = {
                t for ds in index.datasets.values() for (_s, t) in ds.functions
            }
            missing = [t.value for t in temporal if t not in available]
            if missing:
                have = ", ".join(sorted(t.value for t in available)) or "none"
                print(
                    f"error: resolution(s) {', '.join(missing)} are not "
                    f"materialized in this index (available: {have}); "
                    "re-run `repro index` with the resolutions you need",
                    file=sys.stderr,
                )
                return 2
    else:
        datasets, city = load_catalog(args.data)
        print(f"loaded {len(datasets)} data sets from {args.data}")
        corpus = Corpus(datasets, city)
        index = corpus.build_index(temporal=temporal, engine=engine)
        print(
            f"indexed {index.stats.n_scalar_functions} scalar functions "
            f"in {index.stats.scalar_seconds + index.stats.feature_seconds:.1f}s "
            f"({engine.executor}, {engine.n_workers} worker(s))"
        )
        temporal = None  # already applied while building the index
    clause = Clause(
        min_score=args.min_score,
        min_strength=args.min_strength,
        temporal=temporal,
    )
    d1 = args.find.split(",") if args.find else None
    result = index.query(
        d1,
        clause=clause,
        n_permutations=args.permutations,
        seed=args.seed,
        engine=engine,
        significance_mode=args.significance_mode,
    )
    print(
        f"evaluated {result.n_evaluated} relationships, "
        f"{result.n_significant} significant "
        f"({result.evaluations_per_minute:,.0f} evaluations/minute, "
        f"{result.significance_mode} significance)\n"
    )
    for rel in result.top(args.top):
        print(" ", rel.describe())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    engine = default_engine(args.workers, args.executor)
    print("Simulating 90 days of taxi + weather data...")
    coll = nyc_urban_collection(
        seed=args.seed, n_days=90, scale=0.5, subset=("taxi", "weather")
    )
    index = Corpus(coll.datasets, coll.city).build_index(
        temporal=(TemporalResolution.HOUR, TemporalResolution.DAY),
        engine=engine,
    )
    result = index.query(
        n_permutations=200,
        seed=args.seed,
        engine=engine,
        significance_mode=args.significance_mode,
    )
    print(f"{result.n_significant} significant relationships; strongest:")
    for rel in result.top(6):
        print(" ", rel.describe())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    target = Path(args.path).expanduser()
    if target.is_dir():
        return _stats_index(target, as_json=args.json)
    if target.is_file():
        return _stats_trace(target, as_json=args.json)
    print(f"error: {args.path}: no such file or directory", file=sys.stderr)
    return 2


def _stats_index(directory, as_json: bool = False) -> int:
    from .persist import disk_usage, read_manifest

    manifest = read_manifest(directory)
    usage = disk_usage(directory)
    partitions = manifest["partitions"]
    per_dataset: dict[str, int] = {}
    for record in partitions:
        per_dataset[record["dataset"]] = per_dataset.get(record["dataset"], 0) + int(
            record.get("nbytes", 0)
        )
    if as_json:
        _print_json(
            {
                "type": "index",
                "path": str(directory),
                "datasets": list(manifest["datasets"]),
                "n_partitions": len(partitions),
                "total_bytes": usage.total_bytes,
                "function_bytes": usage.function_bytes,
                "feature_bytes": usage.feature_bytes,
                "per_dataset_bytes": {
                    name: per_dataset[name] for name in sorted(per_dataset)
                },
            }
        )
        return 0
    print(f"index at {directory}")
    print(
        f"  data sets:  {len(manifest['datasets'])} "
        f"({', '.join(manifest['datasets'])})"
    )
    print(f"  partitions: {len(partitions)}")
    print(
        f"  on disk:    {usage.total_bytes:,} bytes "
        f"({usage.function_bytes:,} functions, {usage.feature_bytes:,} "
        f"packed features)"
    )
    for name in sorted(per_dataset):
        print(f"    {name}: {per_dataset[name]:,} bytes")
    return 0


def _stats_trace(path, as_json: bool = False) -> int:
    import json

    text = path.read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and "traceEvents" in document:
        events = document["traceEvents"]
        extra = document.get("repro", {})
        breakdown = _breakdown(_chrome_rows(events))
        if as_json:
            _print_json(
                {
                    "type": "trace",
                    "format": "chrome",
                    "name": extra.get("name", "?"),
                    "n_spans": sum(1 for e in events if e.get("ph") == "X"),
                    "coverage": extra.get("coverage", 0.0),
                    "reports": list(extra.get("reports", [])),
                    "breakdown": breakdown,
                }
            )
            return 0
        print(
            f"trace {extra.get('name', '?')!r} "
            f"({sum(1 for e in events if e.get('ph') == 'X')} spans, "
            f"coverage {extra.get('coverage', 0.0):.0%})"
        )
        for payload in extra.get("reports", []):
            print()
            print(obs.RunReport.from_json(payload).render())
        _render_breakdown(breakdown)
        return 0
    # JSONL: one header line, then one span object per line.
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines or "trace_id" not in lines[0]:
        print(f"error: {path} is neither an index nor a trace file", file=sys.stderr)
        return 2
    header, spans = lines[0], lines[1:]
    breakdown = _breakdown(
        (s.get("track", ""), s["name"], float(s["duration"])) for s in spans
    )
    if as_json:
        _print_json(
            {
                "type": "trace",
                "format": "jsonl",
                "name": header.get("name", "?"),
                "n_spans": len(spans),
                "breakdown": breakdown,
            }
        )
        return 0
    print(f"trace {header.get('name', '?')!r} ({len(spans)} spans)")
    _render_breakdown(breakdown)
    return 0


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=1, sort_keys=True))


def _chrome_rows(events):
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    for e in events:
        if e.get("ph") == "X":
            yield names.get(e["tid"], str(e["tid"])), e["name"], e["dur"] / 1e6


def _breakdown(rows) -> list[dict]:
    """Per-track (worker/thread) and per-span-name time totals.

    One list of dict rows feeds both the table renderer and
    ``stats --json`` — same data, two encodings.
    """
    totals: dict[tuple[str, str], list[float]] = {}
    for track, name, seconds in rows:
        entry = totals.setdefault((track, name), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
    return [
        {"track": track, "span": name, "count": count, "seconds": seconds}
        for (track, name), (count, seconds) in sorted(
            totals.items(), key=lambda item: (item[0][0], -item[1][1])
        )
    ]


def _render_breakdown(entries: list[dict]) -> None:
    if not entries:
        return
    print()
    print("time by track and span:")
    current: object = object()
    for entry in entries:
        if entry["track"] != current:
            print(f"  {entry['track'] or '(main)'}:")
            current = entry["track"]
        print(
            f"    {entry['span']:<24} {entry['count']:>5} span(s) "
            f"{entry['seconds'] * 1e3:>10.1f} ms"
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data Polygamy: relationship mining for urban data sets",
    )
    parser.add_argument(
        "--trace",
        default="",
        metavar="OUT",
        help="record a trace of the command: a .json suffix writes "
        "Chrome/Perfetto trace-event JSON (open in about:tracing or "
        "ui.perfetto.dev), anything else one JSON span per line plus a "
        "metrics sibling (default: $REPRO_TRACE; ignored by `worker`, "
        "whose spans ship to its coordinator instead)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live metrics over HTTP while the command runs: "
        "GET /metrics is OpenMetrics text, GET /healthz a JSON health "
        "summary; 0 picks a free port (default: $REPRO_METRICS_PORT; "
        "ignored by `worker`, whose metrics ship to its coordinator "
        "on each heartbeat instead)",
    )
    parser.add_argument(
        "--profile",
        default="",
        metavar="OUT",
        help="sample all thread stacks while the command runs and write "
        "collapsed-stack output (flamegraph.pl / speedscope format) to "
        "OUT; cluster workers' samples fold in under a worker:<id> "
        "prefix (default: $REPRO_PROFILE; ignored by `worker`)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic catalog")
    sim.add_argument("--out", required=True, help="output catalog directory")
    sim.add_argument("--days", type=int, default=120)
    sim.add_argument("--scale", type=float, default=0.5)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument(
        "--datasets",
        default="",
        help="comma-separated subset of data sets (default: all nine)",
    )
    sim.set_defaults(func=_cmd_simulate)

    idx = sub.add_parser("index", help="build an index once and save it to disk")
    idx.add_argument("--data", required=True, help="catalog directory")
    idx.add_argument("--out", required=True, help="output index directory")
    idx.add_argument("--temporal", default="", help="e.g. 'day,week'")
    idx.add_argument(
        "--force",
        action="store_true",
        help="rebuild from scratch even if --out already holds an index "
        "(default: refuse and suggest `repro update`)",
    )
    _add_parallel_flags(idx)
    idx.set_defaults(func=_cmd_index)

    upd = sub.add_parser(
        "update",
        help="incrementally reconcile an existing index with a catalog "
        "(rebuild only the partitions whose inputs changed)",
    )
    upd.add_argument("--data", required=True, help="catalog directory")
    upd.add_argument("--index", required=True, help="existing index directory")
    upd.add_argument(
        "--dry-run",
        action="store_true",
        help="print the keep/rebuild/add/drop plan and exit without writing",
    )
    upd.add_argument(
        "--temporal",
        default="",
        help="temporal resolutions to maintain, e.g. 'day,week' "
        "(default: the resolutions already in the index)",
    )
    _add_parallel_flags(upd)
    upd.set_defaults(func=_cmd_update)

    qry = sub.add_parser("query", help="run a query (catalog or saved index)")
    source = qry.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--data", default="", help="catalog directory (index built on the fly)"
    )
    source.add_argument(
        "--index", default="", help="persisted index directory (skips re-indexing)"
    )
    qry.add_argument("--find", default="", help="comma-separated D1 data sets")
    qry.add_argument("--min-score", type=float, default=0.0)
    qry.add_argument("--min-strength", type=float, default=0.0)
    qry.add_argument("--permutations", type=int, default=1000)
    qry.add_argument("--temporal", default="", help="e.g. 'day,week'")
    qry.add_argument("--top", type=int, default=15)
    qry.add_argument("--seed", type=int, default=0)
    _add_significance_mode_flag(qry)
    _add_parallel_flags(qry)
    qry.set_defaults(func=_cmd_query)

    demo = sub.add_parser("demo", help="end-to-end demo on synthetic data")
    demo.add_argument("--seed", type=int, default=7)
    _add_significance_mode_flag(demo)
    _add_parallel_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    wrk = sub.add_parser(
        "worker",
        help="run one cluster worker daemon (dial a coordinator and "
        "execute map/reduce tasks until shut down)",
    )
    wrk.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (a driver run with --executor cluster, "
        "binding $REPRO_CLUSTER)",
    )
    wrk.add_argument(
        "--id",
        default=None,
        help="worker id shown in coordinator errors (default: host-pid)",
    )
    wrk.add_argument(
        "--retry",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="keep dialing this long (in seconds) without a successful "
        "connection before giving up (default: 60)",
    )
    wrk.add_argument(
        "--redial-base",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="first redial backoff ceiling in seconds; each failed dial "
        "doubles it and the actual sleep is drawn uniformly from "
        "[0, ceiling] — full jitter, so restarting workers do not "
        "stampede the coordinator (default: 0.1)",
    )
    wrk.add_argument(
        "--redial-cap",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="upper bound in seconds on the redial backoff ceiling "
        "(default: 5)",
    )
    wrk.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between heartbeats to the coordinator; each one "
        "piggybacks a metrics delta, so this is also the metrics "
        "shipping cadence (default: 1.0, must be > 0 and below the "
        "coordinator's heartbeat timeout)",
    )
    wrk.add_argument("--quiet", action="store_true", help="suppress status lines")
    wrk.set_defaults(func=_cmd_worker)

    st = sub.add_parser(
        "stats",
        help="inspect a saved index directory (disk usage) or a --trace "
        "output file (run reports, per-worker/per-phase breakdown)",
    )
    st.add_argument("path", help="index directory or trace file")
    st.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one JSON document instead of tables",
    )
    st.set_defaults(func=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="live terminal view of a running driver's metrics exporter "
        "(per-worker task/steal/queue table plus query latency quantiles)",
    )
    top.add_argument(
        "--url",
        default="",
        help="exporter base URL or /metrics URL "
        "(default: http://127.0.0.1:<port> from --port)",
    )
    top.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="exporter port on localhost (default: $REPRO_METRICS_PORT)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between refreshes (default: 1.0)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="exit after N refreshes (default: run until the exporter goes "
        "away or Ctrl-C)",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distributed.worker import run_worker

    return run_worker(
        args.connect,
        worker_id=args.id,
        retry_seconds=args.retry,
        quiet=args.quiet,
        redial_base=args.redial_base,
        redial_cap=args.redial_cap,
        heartbeat_interval=args.heartbeat_interval,
    )


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    url = args.url
    if not url:
        port = args.port
        if port is None:
            raw = os.environ.get(obs.ENV_METRICS_PORT, "").strip()
            if not raw:
                print(
                    "error: repro top needs --url or --port "
                    f"(or ${obs.ENV_METRICS_PORT})",
                    file=sys.stderr,
                )
                return 2
            try:
                port = int(raw)
            except ValueError:
                print(
                    f"error: ${obs.ENV_METRICS_PORT} must be an integer "
                    f"port, got {raw!r}",
                    file=sys.stderr,
                )
                return 2
        url = f"http://127.0.0.1:{port}"
    return run_top(url, interval=args.interval, frames=args.frames)


def _add_significance_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--significance-mode",
        choices=SIGNIFICANCE_MODES,
        default="adaptive",
        help="permutation-test evaluation: 'adaptive' (default) batches "
        "pairs and stops each test once its decision at alpha is settled, "
        "'batched' runs all permutations vectorized (bit-identical "
        "p-values), 'exact' is the per-pair reference path",
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="map-reduce worker count (default: $REPRO_WORKERS, else 1); "
        "for --executor cluster: how many connected workers to wait for",
    )
    parser.add_argument(
        "--executor",
        choices=ALL_EXECUTORS,
        default=None,
        help="map-reduce executor: 'thread' overlaps NumPy work, 'process' "
        "also parallelizes pure-Python merge-tree sweeps, 'cluster' "
        "dispatches to `repro worker` daemons over TCP "
        "(default: $REPRO_EXECUTOR, else serial)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if os.environ.get(obs.ENV_LOG_JSON):
        obs.configure_logging()
    if args.command in ("worker", "top"):
        # Workers never act on driver-side observability flags: their spans,
        # metrics deltas, and profile samples travel back to the coordinator
        # over the wire, so a cluster worker spawned
        # with $REPRO_TRACE / $REPRO_PROFILE / $REPRO_METRICS_PORT inherited
        # from the driver must not race it for the same output path or
        # listen port.  `top` is a pure reader of another process's
        # exporter.
        return args.func(args)

    trace_out = args.trace or os.environ.get(obs.ENV_TRACE, "")
    profile_out = args.profile or os.environ.get(obs.ENV_PROFILE, "")
    metrics_port = args.metrics_port
    if metrics_port is None:
        raw = os.environ.get(obs.ENV_METRICS_PORT, "").strip()
        if raw:
            try:
                metrics_port = int(raw)
            except ValueError:
                parser.error(
                    f"${obs.ENV_METRICS_PORT} must be an integer port, "
                    f"got {raw!r}"
                )
    if not trace_out and not profile_out and metrics_port is None:
        return args.func(args)

    from pathlib import Path

    exporter = obs.start_exporter(metrics_port) if metrics_port is not None else None
    if exporter is not None:
        print(f"metrics exporter listening at {exporter.url}/metrics (and /healthz)")
    if profile_out:
        obs.start_profile()
    if trace_out:
        obs.start_trace(args.command)
    try:
        with obs.span(f"cli.{args.command}"):
            code = args.func(args)
    finally:
        if trace_out:
            trace = obs.end_trace()
            if trace is not None:
                out = Path(trace_out).expanduser()
                if out.suffix == ".json":
                    written = trace.to_chrome(out, metrics=obs.metrics_snapshot())
                else:
                    written = trace.to_jsonl(out)
                    metrics = out.with_suffix(".metrics.json")
                    import json

                    metrics.write_text(
                        json.dumps(obs.metrics_snapshot(), indent=1),
                        encoding="utf-8",
                    )
                print(
                    f"trace written to {written} ({len(trace.spans)} span(s), "
                    f"{trace.coverage():.0%} of wall time covered)"
                )
        if profile_out:
            profiler = obs.end_profile()
            if profiler is not None:
                out = Path(profile_out).expanduser()
                profiler.write(out)
                print(
                    f"profile written to {out} ({profiler.samples} sample(s), "
                    f"{len(profiler.counts())} distinct stack(s))"
                )
        if exporter is not None:
            obs.stop_exporter()
    return code


if __name__ == "__main__":
    sys.exit(main())
