"""Result records: what one workload run produced, as a table, as a file
with provenance, and as the contract's last line."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from . import env
from .catalogue import E2E_NAMES, LAYER_NAMES, UNITS
from .probes import SpanLog
from .run import OP_METRIC, WorkloadRun

_METRIC_OP = {metric: op for op, metric in OP_METRIC.items()}


def result(
    run: WorkloadRun,
    values: dict[str, float | None],
    reasons: dict[str, str],
    args: argparse.Namespace,
) -> dict[str, Any]:
    """The full record of one run: provenance, verdict, metrics (each with
    unit and, for timings, the sample count and range), null reasons and
    the failed operations."""
    names = LAYER_NAMES if args.trace else E2E_NAMES
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        entry: dict[str, Any] = {"value": values[name], "unit": UNITS[name]}
        samples = (
            run.setup_seconds
            if name == "setup_s"
            else run.samples(_METRIC_OP[name])
            if name in _METRIC_OP
            else []
        )
        if samples:
            entry.update(n=len(samples), min=min(samples), max=max(samples))
        metrics[name] = entry
    failed = [r for r in run.ops if not r.ok]
    prov = env.provenance(run.seed, run.seconds, run.tiny)
    prov["sizes"] = run.w.sizes()
    return {
        "workload": run.w.name,
        "trace": int(args.trace),
        "provenance": prov,
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": metrics,
        "null_reasons": reasons,
        "failures": [{"op": r.name, "error": r.error} for r in failed],
    }


def contract_line(res: dict[str, Any]) -> dict[str, Any]:
    """Exactly the keys the driver reads.  ``null`` becomes 0 here (the
    driver wants numbers); ``ledger.metrics_null`` says how many did."""
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": m["value"] or 0.0, "unit": m["unit"]}
            for name, m in res["metrics"].items()
        },
    }


def table(res: dict[str, Any]) -> str:
    kind = "per-layer (traced)" if res["trace"] else "end-to-end (untraced)"
    lines = [
        f"== {res['workload']}: {kind}, seed {res['provenance']['seed']}, "
        f"{res['attempted']} operations, {res['failed']} failed =="
    ]
    for name, m in res["metrics"].items():
        if m["value"] is None:
            shown = f"null  ({res['null_reasons'].get(name, 'no reason recorded')})"
        else:
            shown = f"{m['value']:.6g} {m['unit']}"
            if "n" in m:
                shown += f"  (n={m['n']}, {m['min']:.4g}..{m['max']:.4g})"
        lines.append(f"  {name:<46} {shown}")
    for failure in res["failures"]:
        last_line = failure["error"].strip().splitlines()[-1]
        lines.append(f"  FAILED {failure['op']}: {last_line}")
    return "\n".join(lines)


def write(res: dict[str, Any], path: Path, log: SpanLog | None) -> None:
    """The result file, and beside it the spans of a traced run (one JSON
    object per line: name, start, end, parent line number or null)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(res, indent=1) + "\n")
    if log is None:
        return
    position = {id(span): i for i, span in enumerate(log.spans)}
    with open(path.with_suffix(".spans.jsonl"), "w") as handle:
        for span in log.spans:
            parent = None if span.parent is None else position[id(span.parent)]
            record = {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": parent,
            }
            if span.counts:
                record["counts"] = span.counts
            handle.write(json.dumps(record) + "\n")
