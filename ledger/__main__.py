"""``python3 -m ledger``: the benchmark's one command.

With ``--workload`` it measures that workload in this process and prints,
after a readable table, one JSON object as the last line of standard output
(the contract of ``BENCHMARK.json``)::

    python3 -m ledger --workload urban_serial --seed 13 --seconds 10 --trace 0

Without ``--workload`` it runs every workload, each in a fresh process so
caches and peak RSS are per workload, and prints all their metrics::

    python3 -m ledger                  # end-to-end metrics, six workloads
    python3 -m ledger --traced         # ... plus the per-layer metrics
    python3 -m ledger --check-repeat   # two full sets must agree within bounds
    python3 -m ledger --spread 10      # the driver's steadiness test, 10 seeds
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import env


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    p.add_argument("--workload", help="measure this one workload in this process")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--seconds", type=float, default=None, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--out", help="also write the full result (JSON) here")
    p.add_argument("--workloads", help="comma-separated subset (multi-workload modes)")
    p.add_argument("--traced", action="store_true", help="add the per-layer run")
    p.add_argument("--check-repeat", action="store_true")
    p.add_argument("--spread", type=int, metavar="N", help="N seeds per workload")
    p.add_argument("--write-benchmark-json", action="store_true")
    p.add_argument("--blas-child", type=int, help=argparse.SUPPRESS)
    return p


def _work_dir(label: str) -> Path:
    """A scratch directory inside the checkout; the program's own temporary
    files (cluster spool) are steered into it as well."""
    base = env.ROOT / ".ledger_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    return work


def _one_workload(args: argparse.Namespace) -> int:
    from . import catalogue, report, workloads

    if args.workload not in workloads.BY_NAME:
        print(f"ledger: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.BY_NAME[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    if workload.is_parallel and env.usable_cpus() < env.PARALLEL_WORKERS:
        print(
            f"ledger: {workload.name} needs {env.PARALLEL_WORKERS} usable CPUs, "
            f"this host offers {env.usable_cpus()}; refusing to measure",
            file=sys.stderr,
        )
        return 2
    seconds = catalogue.RUN_SECONDS if args.seconds is None else args.seconds

    from .probes import SpanLog
    from .run import WorkloadRun, blas_child

    work = _work_dir(workload.name)
    log = SpanLog() if args.trace else None
    run = WorkloadRun(workload, args.seed, seconds, work, log=log, tiny=args.tiny)
    try:
        if args.blas_child is not None:
            print(json.dumps(blas_child(run, args.blas_child)))
            return 0
        if args.trace:
            from .layers import derive

            values, reasons = derive(run.run_traced())
        else:
            values, reasons = run.run_untraced(), {}
        result = report.result(run, values, reasons, args)
    finally:
        run.teardown_inputs()  # no cluster worker outlives a failed run
        shutil.rmtree(work, ignore_errors=True)
    print(report.table(result))
    if args.out:
        report.write(result, Path(args.out), log)
    print(json.dumps(report.contract_line(result)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    env.bootstrap()
    if args.write_benchmark_json:
        from .catalogue import benchmark_json_text

        (env.ROOT / "BENCHMARK.json").write_text(benchmark_json_text())
        return 0
    env.adopt_orphans()
    try:
        if args.workload:
            return _one_workload(args)
        from . import runner

        return runner.main(args)
    finally:
        sys.stdout.flush()
        env.reap_descendants()  # nothing this run started outlives it


if __name__ == "__main__":
    sys.exit(main())
