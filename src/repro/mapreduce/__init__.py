"""Map-reduce substrate: job contract, local engine, array plane, simulated
cluster.

The substrate knows nothing of its client: the framework's jobs live with
:class:`repro.core.Corpus` and :mod:`repro.persist`.  The real multi-host
backend lives in :mod:`repro.distributed`; it plugs in behind the same
:class:`Engine` contract via ``executor="cluster"``.
"""

from .cluster import (
    greedy_makespan,
    job_makespan,
    overlapped_makespan,
    speedup_curve,
    straggler_ratio,
)
from .engine import (
    ALL_EXECUTORS,
    EXECUTORS,
    LocalEngine,
    auto_chunk_size,
    default_engine,
)
from .job import Engine, JobStats, MapReduceJob
from .shm import SharedArrayPlane

__all__ = [
    "ALL_EXECUTORS",
    "EXECUTORS",
    "Engine",
    "LocalEngine",
    "SharedArrayPlane",
    "auto_chunk_size",
    "default_engine",
    "JobStats",
    "MapReduceJob",
    "greedy_makespan",
    "job_makespan",
    "overlapped_makespan",
    "speedup_curve",
    "straggler_ratio",
]
