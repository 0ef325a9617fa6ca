"""Simulated-cluster scheduling: makespans and speedups (Fig. 10).

The paper's scalability experiment measures the speedup of each framework
component on clusters of growing size, observing sub-linear scaling for
feature identification and relationship evaluation because *straggler
reducers* (tasks over high-resolution functions) dominate the makespan.

We reproduce exactly that quantity without physical nodes: every task's wall
time is measured during a real single-process run, then replayed through a
Hadoop-like greedy scheduler (each task goes to the earliest-free node, in
submission order).  The speedup on n nodes is the single-node sequential time
divided by the scheduled makespan — stragglers emerge naturally from the
heterogeneous task times.

Since the :mod:`repro.distributed` backend exists, the simulation has a
measured counterpart: ``bench_fig10_speedup.py`` runs the same workload on
real ``local_cluster`` hosts and reports both curves side by side.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..utils.errors import MapReduceError
from .job import JobStats


def greedy_makespan(task_seconds: list[float], n_nodes: int) -> float:
    """Makespan of scheduling tasks onto ``n_nodes`` earliest-free-first.

    Tasks are assigned in submission order, mirroring Hadoop's slot
    assignment; no preemption.
    """
    if n_nodes < 1:
        raise MapReduceError("cluster needs at least one node")
    if not task_seconds:
        return 0.0
    if any(t < 0 for t in task_seconds):
        raise MapReduceError("task durations must be non-negative")
    loads = [0.0] * min(n_nodes, len(task_seconds))
    heap = [(0.0, i) for i in range(len(loads))]
    heapq.heapify(heap)
    for t in task_seconds:
        load, node = heapq.heappop(heap)
        heapq.heappush(heap, (load + t, node))
    return max(load for load, _ in heap)


def job_makespan(stats: JobStats, n_nodes: int) -> float:
    """Scheduled makespan of one job: map wave + shuffle + reduce wave.

    The model is a hard barrier *between the two waves*: no reduce task is
    scheduled until the slowest map task has finished, and the shuffle runs
    serially on the driver in between — so the three terms simply add.
    This matches the local engine's pools; it is the conservative replay
    for Fig. 10 (it can only understate, never overstate, cluster speedup).
    The cluster coordinator overlaps the shuffle with the map wave —
    :func:`overlapped_makespan` models that one — so for it the barrier
    exists only here, as a simulation.
    """
    return (
        greedy_makespan(stats.map_task_seconds, n_nodes)
        + stats.shuffle_seconds
        + greedy_makespan(stats.reduce_task_seconds, n_nodes)
    )


def overlapped_makespan(stats: JobStats, n_nodes: int) -> float:
    """Makespan under the streaming scheduler's overlapped shuffle.

    Models the cluster coordinator: each map result is folded
    into the shuffle *while later map tasks still run*, so by the time the
    last map task lands the shuffle is already done and reduce tasks
    dispatch immediately.  The fold's cost therefore hides behind the map
    wave — except the part that folds the *last* map result, which nothing
    can overlap.  We charge that tail as the fold time amortized over map
    tasks (one task's share); with no map tasks the whole shuffle is the
    tail.  The two greedy waves still add: reduce work cannot start before
    the final map output exists (any map task may emit any key, so no
    grouping is final until the map phase is).
    """
    n_map = len(stats.map_task_seconds)
    fold_tail = stats.shuffle_seconds / n_map if n_map else stats.shuffle_seconds
    return (
        greedy_makespan(stats.map_task_seconds, n_nodes)
        + fold_tail
        + greedy_makespan(stats.reduce_task_seconds, n_nodes)
    )


def speedup_curve(
    stats: JobStats, node_counts: list[int], makespan=job_makespan
) -> dict[int, float]:
    """Speedup (T1 / Tn) of one job for each cluster size.

    The public helper behind the Fig. 10 benchmark (simulated curves) and
    the measured-vs-simulated comparison of the cluster backend.  T1 is the
    scheduled makespan on a single node (= sequential task time plus
    shuffle), Tn the makespan on n nodes.  ``makespan`` selects the
    scheduler model: :func:`job_makespan` (barrier, the default) or
    :func:`overlapped_makespan` (the streaming scheduler).

    Edge cases are defined, not NaN: a zero-duration workload (no tasks, or
    all tasks measuring 0.0s) reports a speedup of exactly 1.0 for every
    cluster size — there is nothing to speed up, and callers plotting or
    asserting on curves must not trip over division by zero.  More nodes
    than tasks is fine (extra nodes idle; the curve plateaus).
    """
    t1 = makespan(stats, 1)
    curve: dict[int, float] = {}
    for n in node_counts:
        tn = makespan(stats, n)
        curve[n] = t1 / tn if tn > 0 else 1.0
    return curve


def straggler_ratio(task_seconds: list[float]) -> float:
    """Max task time over mean task time — the straggler severity metric.

    Values near 1 mean homogeneous tasks (near-linear scaling); large values
    explain the sub-linear curves of Fig. 10.
    """
    if not task_seconds:
        return 1.0
    arr = np.asarray(task_seconds, dtype=np.float64)
    mean = arr.mean()
    return float(arr.max() / mean) if mean > 0 else 1.0
