"""Figure 10: speedup of the three framework components vs. cluster size.

The paper measures map-reduce speedups on AWS clusters of growing size and
observes: near-linear scaling for scalar-function computation, lower speedup
for feature identification and relationship evaluation due to straggler
reducers handling the highest-resolution functions.

Two reproductions of that protocol live here:

* **Simulated** (``test_fig10_speedup_curves``): every task's wall time is
  taken from what a real serial ``Corpus`` run already records — the
  per-partition ``IndexStats.scalar_seconds`` / ``feature_seconds`` of the
  build (one task per (data set, resolution) partition) and each data set
  pair's ``QueryResult.elapsed_seconds`` (one task per data set pair, the
  granularity of the paper's relationship reducers: scoring the pair's
  functions *and* testing its candidates) — then replayed through a
  Hadoop-style greedy scheduler for each cluster size; the speedup is
  T1 / Tn.  Stragglers emerge naturally from the heterogeneous per-task
  times.  (``Corpus`` itself scores on the driver and dispatches only the
  candidates' significance tests, in chunks — its ``job_stats`` hold no
  scoring time and nothing at all for a pair without a candidate — which
  is why its measured runs do not inherit the paper's relationship
  stragglers.)
* **Measured** (``test_fig10b_measured_cluster_speedup``): one indexing
  workload runs serially and on *real* clusters of 1/2/4 localhost worker
  processes (``repro.distributed.local_cluster``), wall-clocked end to end
  and checked bit-identical to serial.  Measured and simulated speedups are
  reported side by side and recorded to
  ``BENCH_fig10_measured_speedup.json``.  On a single-CPU host the measured
  curve is flat (localhost workers share one core — the honest result); the
  benchmark then logs a visible notice — "usable_cpus=1 — flat curve
  expected, speedup floor not asserted" — in both the console output and
  the JSON record, and only sanity bounds apply.  With >= 2 usable CPUs the
  speedup floor is asserted: 2 hosts must beat 1 host by more than 1.5x.
"""

import time

import numpy as np
import pytest

from _host import usable_cpus
from repro.core.corpus import Corpus
from repro.mapreduce.cluster import (
    overlapped_makespan,
    speedup_curve,
    straggler_ratio,
)
from repro.mapreduce.job import JobStats
from repro.synth import nyc_urban_collection
from repro.temporal.resolution import TemporalResolution

NODE_COUNTS = [1, 2, 4, 8, 16, 20]

#: Real localhost clusters raced by the measured experiment.
MEASURED_HOSTS = (1, 2, 4)

#: Seed of the measured experiment's collection (committed in the record).
MEASURED_SEED = 13


@pytest.fixture(scope="module")
def component_stats(urban_small, smoke):
    """Per-task timings of the three framework components, one serial run.

    Scalar-function computation and feature identification are timed apart
    inside every (data set, resolution) partition task of the build; a
    relationship task is one data set pair's whole query — the paper's
    per-pair reducer both compares the features and tests the candidates.
    """
    index = Corpus(urban_small.datasets, urban_small.city).build_index(
        temporal=(TemporalResolution.DAY, TemporalResolution.WEEK)
    )
    partitions = list(index.partition_stats.values())
    names = sorted(index.datasets)
    pair_seconds = [
        index.query(
            [a], [b], n_permutations=20 if smoke else 60, seed=0
        ).elapsed_seconds
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    return {
        "scalar functions": JobStats(
            map_task_seconds=[p.scalar_seconds for p in partitions]
        ),
        "feature identification": JobStats(
            map_task_seconds=[p.feature_seconds for p in partitions]
        ),
        "relationships": JobStats(map_task_seconds=pair_seconds),
    }


def test_fig10_speedup_curves(component_stats, benchmark, smoke):
    curves = {
        name: speedup_curve(stats, NODE_COUNTS)
        for name, stats in component_stats.items()
    }
    print("\nFigure 10 — speedup vs. number of nodes (simulated cluster)")
    print(f"{'component':>24s} " + " ".join(f"n={n:<5d}" for n in NODE_COUNTS))
    for name, curve in curves.items():
        print(f"{name:>24s} " + " ".join(f"{curve[n]:<7.2f}" for n in NODE_COUNTS))
    print(
        "straggler ratios: "
        + ", ".join(
            f"{name}={straggler_ratio(stats.map_task_seconds):.1f}"
            for name, stats in component_stats.items()
        )
    )

    for curve in curves.values():
        # Monotone non-decreasing speedup in cluster size.
        values = [curve[n] for n in NODE_COUNTS]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert abs(curve[1] - 1.0) < 1e-9
    # The paper's key observation: the event-driven phases scale worse than
    # scalar-function computation because straggler reducers dominate.
    # (Skipped under smoke: tiny task times make the comparison jittery.)
    if not smoke:
        assert curves["scalar functions"][20] >= curves["relationships"][20] - 1e-9

    benchmark.pedantic(
        lambda: speedup_curve(component_stats["feature identification"], NODE_COUNTS),
        iterations=5,
        rounds=3,
    )


def _assert_index_identical(reference, other):
    assert reference.stats.n_scalar_functions == other.stats.n_scalar_functions
    for name, ds_ref in reference.datasets.items():
        ds_other = other.datasets[name]
        assert list(ds_ref.functions) == list(ds_other.functions)
        for key, fns in ds_ref.functions.items():
            for fn_r, fn_o in zip(fns, ds_other.functions[key]):
                assert fn_r.function_id == fn_o.function_id
                assert np.array_equal(fn_r.function.values, fn_o.function.values)


def test_fig10b_measured_cluster_speedup(smoke, write_bench_record):
    """Measured multi-host speedups next to the simulated ones.

    The workload is indexing the whole urban collection at hour, day and
    week resolution, at a record scale where aggregation and merge trees —
    work that parallelizes — are seconds, so the ~0.15 s a cluster run
    costs whatever its size is small next to it, and 67 partitions of mixed
    weight, so no single straggler decides the two-host makespan.  (Three
    data sets at hour resolution only were 7 tasks, one of them 44 % of
    0.3 s of work: that ratio measured the fixed cost and the straggler.)
    One serial run anchors the baseline and donates its per-task timings to
    the simulated scheduler; then real clusters of 1/2/4 localhost workers
    run the identical build once each — one timing per cluster size, no
    best-of-N — checked bit-identical to serial.
    """
    from repro.distributed import local_cluster

    coll = nyc_urban_collection(
        seed=MEASURED_SEED, n_days=10 if smoke else 20, scale=4.0
    )
    corpus = Corpus(coll.datasets, coll.city)
    temporal = (
        TemporalResolution.HOUR,
        TemporalResolution.DAY,
        TemporalResolution.WEEK,
    )

    start = time.perf_counter()
    serial_index = corpus.build_index(temporal=temporal)
    serial_seconds = time.perf_counter() - start
    simulated = speedup_curve(serial_index.job_stats, list(MEASURED_HOSTS))
    # The same replay under the v2 streaming scheduler's model (the shuffle
    # fold hides behind the map wave) — what the cluster backend actually runs.
    simulated_overlapped = speedup_curve(
        serial_index.job_stats, list(MEASURED_HOSTS), makespan=overlapped_makespan
    )

    # Largest cluster first: neither the serial build nor a 1-host cluster
    # loads two CPUs at once, and on a small VM a vCPU that has idled runs
    # its first busy second at about half speed (measured here: 1.31 s for a
    # 2-host build that is the process's first parallel load, 0.92-0.95 s
    # for every later one, 0.91 s for a first one after two processes spun
    # for a second).  That is the host, not the scheduler; in this order it
    # lands on the 4-host run, which is reported but carries no bar.
    measured_seconds: dict[int, float] = {}
    for n_hosts in sorted(MEASURED_HOSTS, reverse=True):
        with local_cluster(n_hosts) as engine:
            start = time.perf_counter()
            cluster_index = corpus.build_index(temporal=temporal, engine=engine)
            measured_seconds[n_hosts] = time.perf_counter() - start
        _assert_index_identical(serial_index, cluster_index)

    measured = {n: measured_seconds[1] / measured_seconds[n] for n in MEASURED_HOSTS}
    cpus = usable_cpus()
    notice = (
        f"usable_cpus={cpus} — flat curve expected, speedup floor not asserted"
        if cpus < 2
        else None
    )
    print(
        f"\nFigure 10(b) — measured cluster speedup vs. simulated "
        f"({cpus} usable CPU(s), serial build {serial_seconds:.2f}s)"
    )
    print(
        f"{'hosts':>6s} {'wall (s)':>9s} {'measured':>9s} "
        f"{'sim barrier':>12s} {'sim overlap':>12s}"
    )
    for n in MEASURED_HOSTS:
        print(
            f"{n:>6d} {measured_seconds[n]:>9.2f} {measured[n]:>8.2f}x "
            f"{simulated[n]:>11.2f}x {simulated_overlapped[n]:>11.2f}x"
        )
    if notice:
        print(f"NOTICE: {notice}")

    record = {
        "figure": "10b",
        "seed": MEASURED_SEED,
        "hosts": list(MEASURED_HOSTS),
        "n_scalar_functions": serial_index.stats.n_scalar_functions,
        "serial_seconds": round(serial_seconds, 4),
        "measured_seconds": {
            str(n): round(measured_seconds[n], 4) for n in MEASURED_HOSTS
        },
        "measured_speedup": {
            str(n): round(measured[n], 3) for n in MEASURED_HOSTS
        },
        "simulated_speedup": {
            str(n): round(simulated[n], 3) for n in MEASURED_HOSTS
        },
        "simulated_overlapped_speedup": {
            str(n): round(simulated_overlapped[n], 3) for n in MEASURED_HOSTS
        },
        "bit_identical": True,
    }
    if notice:
        record["notice"] = notice
    write_bench_record("fig10_measured_speedup", record)

    # A 1-host cluster is serial execution plus dispatch overhead: it must
    # land in the same ballpark as the serial build (a pathologically slow
    # backend — e.g. artifacts re-shipped per task — would blow this up).
    assert measured_seconds[1] < serial_seconds * 5 + 2.0, (
        f"1-host cluster took {measured_seconds[1]:.2f}s vs "
        f"{serial_seconds:.2f}s serial — dispatch overhead is pathological"
    )
    # Real parallelism needs real cores: with >= 2 usable CPUs, two hosts
    # must beat one host by more than 1.5x on the same workload (the
    # acceptance bar for the streaming scheduler).  On one CPU the curve is
    # honestly flat — the NOTICE above says so — and only sanity bounds apply.
    if cpus >= 2:
        assert measured[2] > 1.5, (
            f"2 hosts measured {measured[2]:.2f}x vs 1 host with {cpus} "
            "usable CPUs — the streaming scheduler should clear 1.5x"
        )
    else:
        assert measured[2] > 0.5  # no pathological slowdown either
