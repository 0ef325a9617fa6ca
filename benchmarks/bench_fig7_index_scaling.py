"""Figure 7: merge-tree index creation and feature-query time vs. input size.

The paper plots indexing (join + split tree) and feature-query times against
the number of edges of the domain graph for the taxi density function at the
city (1-D) and neighborhood (3-D) resolutions, observing near-linear growth.
We sweep the same two domain shapes over growing sizes and print the series;
the largest neighborhood case is the timed benchmark.

Part (c) extends the figure with index *persistence*: the index is meant to
be built once and queried many times (§5.4 accounts its space overhead for
exactly that reason), so loading a saved index must be far cheaper than
rebuilding it, and the on-disk bytes must reconcile with ``IndexStats``.

Part (d) extends it with index *maintenance*: when a small fraction of the
catalog changes (one data set gains a few days of records), `repro update`
must beat a from-scratch rebuild decisively, because it re-indexes only the
changed (data set, resolution) partitions and splices the rest from disk.
"""

import time

import numpy as np

from repro.core.corpus import Corpus, CorpusIndex
from repro.core.features import query_sublevel, query_superlevel
from repro.core.merge_tree import compute_join_tree, compute_split_tree
from repro.core.scalar_function import ScalarFunction
from repro.graph.domain_graph import DomainGraph
from repro.persist import disk_usage
from repro.spatial.adjacency import grid_adjacency
from repro.spatial.resolution import SpatialResolution
from repro.synth import nyc_urban_collection
from repro.temporal.resolution import TemporalResolution


def make_function(n_regions: int, n_steps: int, seed: int = 0) -> ScalarFunction:
    rng = np.random.default_rng(seed)
    if n_regions == 1:
        pairs = None
    else:
        side = int(np.sqrt(n_regions))
        pairs = grid_adjacency(side, side)
    graph = DomainGraph(n_regions, n_steps, pairs)
    diurnal = 1 + 0.5 * np.sin(2 * np.pi * np.arange(n_steps) / 24)
    values = rng.poisson(20 * diurnal[:, None], (n_steps, n_regions)).astype(float)
    spatial = (
        SpatialResolution.CITY if n_regions == 1 else SpatialResolution.NEIGHBORHOOD
    )
    return ScalarFunction("bench.density", values, graph, spatial,
                          TemporalResolution.HOUR)


def index_and_query(function: ScalarFunction) -> tuple[float, float]:
    """(indexing seconds, querying seconds) for one function."""
    start = time.perf_counter()
    flat = function.flat_values()
    join = compute_join_tree(function.graph, flat, function.vertex_order(True))
    split = compute_split_tree(function.graph, flat, function.vertex_order(False))
    index_seconds = time.perf_counter() - start

    start = time.perf_counter()
    q1, q3 = np.percentile(flat, [25, 75])
    query_superlevel(function, q3, join)
    query_sublevel(function, q1, split)
    query_seconds = time.perf_counter() - start
    return index_seconds, query_seconds


def _print_series(label, rows):
    print(f"\nFigure 7{label}")
    print(f"{'edges':>10s} {'index (s)':>10s} {'query (s)':>10s}")
    for edges, idx, qry in rows:
        print(f"{edges:>10,d} {idx:>10.4f} {qry:>10.4f}")


def test_fig7a_city_resolution_scaling(benchmark, smoke):
    sizes = (500, 1_000, 2_000) if smoke else (2_000, 8_000, 32_000)
    rows = []
    for n_steps in sizes:
        fn = make_function(1, n_steps)
        idx, qry = index_and_query(fn)
        rows.append((fn.graph.n_edges, idx, qry))
    _print_series("(a) — city (1-D time series)", rows)

    if not smoke:  # tiny inputs are timing-jitter dominated
        # Near-linear scaling: 16x edges should cost well under 64x time.
        assert rows[-1][1] / max(rows[0][1], 1e-9) < 16 * 4
    benchmark.pedantic(
        lambda: index_and_query(make_function(1, sizes[-1])),
        iterations=1,
        rounds=2,
    )


def test_fig7b_neighborhood_resolution_scaling(benchmark, smoke):
    shapes = (
        ((2, 200), (4, 400), (4, 800))
        if smoke
        else ((4, 500), (8, 1_000), (8, 4_000))
    )
    rows = []
    for side, n_steps in shapes:
        fn = make_function(side * side, n_steps)
        idx, qry = index_and_query(fn)
        rows.append((fn.graph.n_edges, idx, qry))
    _print_series("(b) — neighborhood (3-D)", rows)

    if not smoke:
        edges_ratio = rows[-1][0] / rows[0][0]
        time_ratio = rows[-1][1] / max(rows[0][1], 1e-9)
        assert time_ratio < edges_ratio * 4, "indexing must stay near-linear"
    side, n_steps = shapes[-1]
    benchmark.pedantic(
        lambda: index_and_query(make_function(side * side, n_steps)),
        iterations=1,
        rounds=2,
    )


def test_fig7c_persistence_load_vs_rebuild(benchmark, smoke, tmp_path):
    """Loading a saved corpus index must beat rebuilding it decisively.

    Under ``--smoke`` the bar is load >= 2x faster than the build, as it
    has been since the array-union-find sweep (PR 3).  At full scale the
    bar was the same ratio at 5x, and every speed-up of the merge-tree
    sweep ate into it without the load getting any worse: the contracted
    sweep took it from 5.4x to 3.2x with the load at 0.041 s both times.
    It is therefore stated on what it guards, load seconds per persisted
    byte: >= 12 MB/s, half of what the 2-CPU reference host reads (24.7;
    the ledger's ``urban_serial`` reads 26.8).  The ratio is still printed.
    """
    n_days, scale = (60, 0.25) if smoke else (120, 0.5)
    coll = nyc_urban_collection(
        seed=13, n_days=n_days, scale=scale, subset=("taxi", "weather")
    )
    corpus = Corpus(coll.datasets, coll.city)
    kwargs = dict(
        spatial=(SpatialResolution.CITY,),
        temporal=(TemporalResolution.HOUR, TemporalResolution.DAY),
    )

    start = time.perf_counter()
    index = corpus.build_index(**kwargs)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    index.save(tmp_path)
    save_seconds = time.perf_counter() - start

    # Best of three: a single sample is at the mercy of noisy shared CI
    # runners, and one disk stall must not fail the job.
    load_samples = []
    for _ in range(3):
        start = time.perf_counter()
        loaded = CorpusIndex.load(tmp_path)
        load_samples.append(time.perf_counter() - start)
    load_seconds = min(load_samples)

    usage = disk_usage(tmp_path)
    print("\nFigure 7(c) — persisted index: load vs. rebuild")
    load_mb_per_s = usage.total_bytes / 1e6 / max(load_seconds, 1e-9)
    print(
        f"{'build (s)':>10s} {'save (s)':>10s} {'load (s)':>10s} "
        f"{'speedup':>8s} {'load MB/s':>10s}"
    )
    print(
        f"{build_seconds:>10.3f} {save_seconds:>10.3f} {load_seconds:>10.3f} "
        f"{build_seconds / max(load_seconds, 1e-9):>7.1f}x {load_mb_per_s:>10.1f}"
    )
    print(
        f"on disk: {usage.total_bytes:,} B total "
        f"({usage.function_bytes:,} B functions, "
        f"{usage.feature_bytes:,} B packed features)"
    )

    # §5.4 reconciliation: uncompressed on-disk arrays == in-memory counters.
    assert usage.function_bytes == index.stats.function_bytes
    assert usage.feature_bytes == index.stats.feature_bytes
    assert loaded.stats == index.stats
    # The acceptance bar: persistence must make repeated use cheap.
    if smoke:
        assert load_seconds * 2 <= build_seconds, (
            f"loading ({load_seconds:.3f}s) must be >= 2x faster than "
            f"rebuilding ({build_seconds:.3f}s)"
        )
    else:
        assert load_mb_per_s >= 12.0, (
            f"loading {usage.total_bytes:,} B took {load_seconds:.3f}s "
            f"({load_mb_per_s:.1f} MB/s); the bar is 12 MB/s"
        )
    benchmark.pedantic(lambda: CorpusIndex.load(tmp_path), iterations=1, rounds=3)


def test_fig7d_incremental_update_vs_rebuild(smoke, tmp_path, write_bench_record):
    """`repro update` vs. from-scratch rebuild when <25% of partitions change.

    Six data sets, city resolution, hour + day: 12 partitions.  One data set
    (calls_911) gains extra days — 2/12 ≈ 17% of partitions change — and the
    incremental update must be >= 3x faster than rebuild + save at full
    scale (>= 1.5x under --smoke, where fixed planning/linking overheads
    weigh more).  The updated index is also verified to carry the same §5.4
    counters as the rebuilt one, so the speedup is never bought with drift.
    """
    from repro.incremental import apply_update

    n_days, scale = (45, 0.25) if smoke else (120, 0.5)
    subset = (
        "collisions",
        "complaints_311",
        "calls_911",
        "citibike",
        "weather",
        "taxi",
    )
    coll = nyc_urban_collection(seed=21, n_days=n_days, scale=scale, subset=subset)
    extended = nyc_urban_collection(
        seed=21,
        n_days=n_days + max(7, n_days // 8),
        scale=scale,
        subset=("calls_911",),
    )
    kwargs = dict(
        spatial=(SpatialResolution.CITY,),
        temporal=(TemporalResolution.HOUR, TemporalResolution.DAY),
    )
    index_dir = tmp_path / "idx"

    start = time.perf_counter()
    corpus = Corpus(coll.datasets, coll.city)
    index = corpus.build_index(**kwargs)
    index.save(index_dir)
    initial_seconds = time.perf_counter() - start

    mutated = [
        extended.dataset("calls_911") if ds.name == "calls_911" else ds
        for ds in coll.datasets
    ]
    corpus2 = Corpus(mutated, coll.city)

    start = time.perf_counter()
    report = apply_update(index_dir, corpus2, **kwargs)
    update_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = corpus2.build_index(**kwargs)
    rebuilt.save(tmp_path / "scratch")
    rebuild_seconds = time.perf_counter() - start

    n_partitions = report.n_reused + report.n_rebuilt + report.n_added
    changed_fraction = (report.n_rebuilt + report.n_added) / n_partitions
    speedup = rebuild_seconds / max(update_seconds, 1e-9)

    print("\nFigure 7(d) — incremental update vs. from-scratch rebuild")
    print(
        f"{'initial (s)':>12s} {'rebuild (s)':>12s} {'update (s)':>11s} "
        f"{'changed':>8s} {'speedup':>8s}"
    )
    print(
        f"{initial_seconds:>12.3f} {rebuild_seconds:>12.3f} "
        f"{update_seconds:>11.3f} {changed_fraction:>7.0%} {speedup:>7.1f}x"
    )
    print(
        f"reused {report.n_reused} partition(s) "
        f"({report.bytes_reused:,} B untouched), "
        f"rewrote {report.bytes_rewritten:,} B"
    )

    write_bench_record(
        "fig7d_incremental",
        {
            "n_partitions": n_partitions,
            "changed_fraction": changed_fraction,
            "initial_build_seconds": initial_seconds,
            "rebuild_seconds": rebuild_seconds,
            "update_seconds": update_seconds,
            "speedup": speedup,
            "partitions_reused": report.n_reused,
            "bytes_reused": report.bytes_reused,
            "bytes_rewritten": report.bytes_rewritten,
        },
    )

    # Correctness alongside speed: the spliced index carries exactly the
    # §5.4 counters of the rebuilt one.
    updated = CorpusIndex.load(index_dir)
    assert updated.stats.n_scalar_functions == rebuilt.stats.n_scalar_functions
    assert updated.stats.function_bytes == rebuilt.stats.function_bytes
    assert updated.stats.feature_bytes == rebuilt.stats.feature_bytes

    assert changed_fraction < 0.25, "scenario must change <25% of partitions"
    required = 1.5 if smoke else 3.0
    assert speedup >= required, (
        f"incremental update ({update_seconds:.3f}s) must be >= {required}x "
        f"faster than rebuilding ({rebuild_seconds:.3f}s)"
    )
