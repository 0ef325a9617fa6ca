"""Multi-workload modes: the full table, the repeat check, the spread test.

Each workload runs in a fresh ``python3 -m ledger --workload ...`` child, so
caches, pools and peak RSS never leak from one workload into the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import env
from .catalogue import BOUNDS, E2E_NAMES, RUN_SECONDS, UNITS
from .workloads import BY_NAME, WORKLOADS

RESULTS_DIR = env.ROOT / ".ledger_work" / "results"


def _selected(args: argparse.Namespace) -> list[str]:
    if not args.workloads:
        return [w.name for w in WORKLOADS]
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        raise SystemExit(f"ledger: unknown workload(s) {', '.join(unknown)}")
    return names


def run_child(
    name: str, args: argparse.Namespace, seed: int, trace: int, tag: str
) -> dict[str, Any]:
    """One workload in a child process; returns its full result record."""
    out = RESULTS_DIR / f"{tag}-{name}-trace{trace}.json"
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    cmd = [
        sys.executable, "-m", "ledger",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ] + (["--tiny"] if args.tiny else [])  # fmt: skip
    done = subprocess.run(cmd, cwd=env.ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ledger: {name} exited with {done.returncode}")
    # Everything but the contract line is the child's readable table.
    print("\n".join(done.stdout.rstrip().splitlines()[:-1]), flush=True)
    return json.loads(out.read_text())


def run_set(args: argparse.Namespace, tag: str, traced: bool) -> dict[str, Any]:
    """Every selected workload once (and once more traced, if asked)."""
    results: dict[str, Any] = {}
    for name in _selected(args):
        results[name] = {"end_to_end": run_child(name, args, args.seed, 0, tag)}
        if traced:
            results[name]["per_layer"] = run_child(name, args, args.seed, 1, tag)
    return results


def _all_correct(results: dict[str, Any]) -> bool:
    return all(r["correct"] for by_kind in results.values() for r in by_kind.values())


def check_repeat(args: argparse.Namespace) -> int:
    """Two full sets of the same code must agree within each metric's bound;
    every pairing prints both medians and the range of its samples, so a
    multi-modal operation shows instead of hiding behind a minimum."""
    first = run_set(args, "repeat1", traced=args.traced)
    second = run_set(args, "repeat2", traced=False)
    failures = []
    print("\n== repeat check: set 1 vs set 2 (relative difference, bound) ==")
    for name in first:
        a, b = first[name]["end_to_end"], second[name]["end_to_end"]
        mismatch = env.provenance_mismatch(a["provenance"], b["provenance"])
        if mismatch:
            print(f"ledger: not comparing {name}: provenance differs on {mismatch}")
            return 2
        for metric in E2E_NAMES:
            ma, mb = a["metrics"][metric], b["metrics"][metric]
            va, vb = ma["value"], mb["value"]
            diff = abs(va - vb) / statistics.median((va, vb)) if va and vb else 1.0
            verdict = "ok" if diff <= BOUNDS[metric] else "DIFFERS"
            lo = min(ma.get("min", va), mb.get("min", vb))
            hi = max(ma.get("max", va), mb.get("max", vb))
            print(
                f"  {name:<15} {metric:<25} {va:>10.5g} {vb:>10.5g} {UNITS[metric]:<6}"
                f" min {lo:.5g} median {statistics.median((va, vb)):.5g} max {hi:.5g}"
                f"  diff {diff:.3f} (bound {BOUNDS[metric]})  {verdict}"
            )
            if verdict != "ok":
                failures.append((name, metric))
    _write(args, {"set1": first, "set2": second})
    if not (_all_correct(first) and _all_correct(second)):
        print("ledger: an output check failed")
        return 1
    if failures:
        print(f"ledger: {len(failures)} pairing(s) differ by more than their bound")
        return 1
    print("ledger: both sets agree within every bound")
    return 0


def spread(args: argparse.Namespace) -> int:
    """The driver's steadiness test: N seeds per workload; for every
    end-to-end metric the inter-quartile range over the N values as a share
    of their median must stay below the bound (aim: a third of it)."""
    worst = 0
    print()
    for name in _selected(args):
        runs = [
            run_child(name, args, args.seed + i, 0, f"spread{i}")
            for i in range(args.spread)
        ]
        print(f"== spread over {args.spread} seeds: {name} ==")
        for metric in E2E_NAMES:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            bound = BOUNDS[metric]
            grade = 0 if share <= bound / 3 else 1 if share <= bound else 2
            worst = max(worst, grade if metric != "setup_s" else min(grade, 1))
            print(
                f"  {metric:<25} median {statistics.median(values):>10.5g} "
                f"{UNITS[metric]:<6} IQR/median {share:.4f}  bound {bound}  "
                + ("ok", "above a third of the bound", "ABOVE THE BOUND")[grade]
            )
    return 1 if worst == 2 else 0


def _write(args: argparse.Namespace, payload: dict[str, Any]) -> None:
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"ledger: wrote {path}")


def main(args: argparse.Namespace) -> int:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if args.check_repeat:
        code = check_repeat(args)
    elif args.spread:
        code = spread(args)
    else:
        results = run_set(args, "run", traced=args.traced)
        _write(args, results)
        code = 0 if _all_correct(results) else 1
    print(f"ledger: done in {time.perf_counter() - start:.0f} s")
    return code
