"""The six workloads: which corpus, how large, through which executor.

Every workload runs the same round of operations (see :mod:`ledger.run`);
what differs is the corpus and the executor, and therefore which layer the
time goes to.  Sizes are fixed here and nowhere else.  They are the largest
that let a round finish inside the time the benchmark contract leaves for
one run (about 25 s including set-up, six workloads), which is why they are
smaller than a realistic deployment: only ``n_days``, ``scale`` and
``n_datasets`` were tuned, never the operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One (corpus, executor) pairing and the reason it exists."""

    name: str
    #: ``urban`` = ``nyc_urban_collection`` at every viable resolution;
    #: ``records`` = the same generator, many records, coarse resolutions;
    #: ``open`` = ``nyc_open_collection``, many small data sets.
    corpus: str
    n_days: int
    scale: float = 1.0
    n_datasets: int = 0
    #: Temporal whitelist (resolution values) or ``None`` for all viable.
    temporal: tuple[str, ...] | None = None
    executor: str = "serial"
    #: Single-data-set queries per round (evenly spaced over the corpus).
    n_query_one: int = 5
    #: Randomizations per significance test (the paper's and the CLI's 1000).
    n_permutations: int = 1000
    #: Urban corpora: the size every seed is steered to (see
    #: :mod:`ledger.inputs`); 0 takes whatever the seed gives.
    target_records: int = 0
    why: str = ""

    @property
    def n_workers(self) -> int:
        return 1 if self.executor == "serial" else 2

    @property
    def is_parallel(self) -> bool:
        return self.executor != "serial"

    def sizes(self) -> dict:
        """The chosen sizes, for the provenance block."""
        out = {"corpus": self.corpus, "n_days": self.n_days}
        if self.corpus == "open":
            out["n_datasets"] = self.n_datasets
        else:
            out["scale"] = self.scale
        if self.temporal is not None:
            out["temporal"] = list(self.temporal)
        out["executor"] = self.executor
        out["n_workers"] = self.n_workers
        out["n_query_one"] = self.n_query_one
        out["target_records"] = self.target_records
        return out


_URBAN = dict(corpus="urban", n_days=14, scale=0.3, target_records=29_200)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="urban_serial",
        **_URBAN,
        why="nyc_urban 14 days x0.3, all 89 partitions, one core: the "
        "canonical flow; build is merge trees + features, query is "
        "significance testing, data layers are small",
    ),
    Workload(
        name="records_serial",
        corpus="records",
        n_days=10,
        scale=6.0,
        temporal=("day", "week"),
        target_records=227_000,
        why="nyc_urban 10 days x6 (~227k records), day+week only, one core: "
        "same code, opposite shares; CSV parse and aggregation dominate, "
        "merge trees are small",
    ),
    Workload(
        name="open_serial",
        corpus="open",
        n_days=180,
        n_datasets=40,
        n_query_one=20,
        why="nyc_open 40 small data sets x180 days (141 partitions), one "
        "core: many tiny pairs, so scoring, enumeration and per-file I/O "
        "weigh more than significance kernels",
    ),
    Workload(
        name="urban_thread",
        **_URBAN,
        executor="thread",
        why="urban_serial's corpus on 2 threads: GIL-bound build should not "
        "scale, NumPy-bound query should; guards LocalEngine's pool path "
        "and shuffle",
    ),
    Workload(
        name="urban_process",
        **_URBAN,
        executor="process",
        why="urban_serial's corpus on 2 processes: pickling, the shm plane "
        "and a pool start per run; build should scale, query ships every "
        "chunk's features",
    ),
    Workload(
        name="urban_cluster",
        **_URBAN,
        executor="cluster",
        why="urban_serial's corpus on local_cluster(2): coordinator, worker "
        "pipeline, data plane and streaming shuffle do real work; setup_s "
        "includes worker spawn",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size (``--tiny``, the test suite):
    a few days, a few data sets, day resolution only, 100 permutations."""
    small = dict(
        n_query_one=2, temporal=("day",), target_records=0, n_permutations=100
    )
    if workload.corpus == "open":
        return replace(workload, n_days=30, n_datasets=6, **small)
    if workload.corpus == "records":
        return replace(workload, n_days=3, scale=0.5, **small)
    return replace(workload, n_days=3, scale=0.2, **small)
