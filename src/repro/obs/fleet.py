"""Fleet metrics: ship per-worker registry deltas, fold them fleet-wide.

The live half of the metrics plane.  Each worker daemon owns one
:class:`DeltaShipper` over its process registry; every heartbeat it emits
the *delta* since the previous heartbeat (piggybacked on
``Heartbeat.metrics``).  The coordinator owns one :class:`FleetAggregator`
that folds arriving deltas into a per-worker replica registry — counters
and histogram buckets add, so the fold is **order-independent**, which is
exactly the property the fixed-bound histograms were designed for
(:meth:`~repro.obs.metrics.Histogram.merge`).

Delivery is at-most-once with duplicates dropped: every delta carries a
per-shipper sequence number and a random per-process epoch.  The
aggregator ignores a ``(epoch, seq)`` it has already applied (a retried
frame), and resets a worker's replica when the epoch changes (the worker
restarted and its cumulative baselines started over).  A delta consumed
from the shipper but lost with its connection is *dropped, not
re-shipped* — the fleet view is advisory telemetry, never an input to
scheduling or results.

The delta itself is a plain JSON-able dict::

    {"seq": 7, "epoch": "3f9ab2c1",
     "counters":   [[name, [[label, value], ...], increment], ...],
     "gauges":     [[name, labels, value], ...],
     "histograms": [[name, labels, {"counts": [...], "count": n,
                                    "total": t, "min": m, "max": M}], ...]}

Histogram entries ship bucket-count *diffs* (plus cumulative min/max,
which fold idempotently through ``min``/``max``); ``bounds`` is included
only when a histogram deviates from :data:`DEFAULT_BUCKET_BOUNDS`, so a
steady-state heartbeat stays small.
"""

from __future__ import annotations

import secrets
import threading
from typing import Any

from .metrics import (
    DEFAULT_BUCKET_BOUNDS,
    REGISTRY,
    Histogram,
    MetricsRegistry,
)

__all__ = ["DeltaShipper", "FleetAggregator"]


class DeltaShipper:
    """Emits the changes of a registry since the previous emission.

    One per worker daemon (not per connection): baselines and the sequence
    number survive reconnects, so a new coordinator only ever sees honest
    increments and a retained coordinator keeps deduplicating by ``seq``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self._lock = threading.Lock()
        self._seq = 0
        #: Random per-process epoch: a restarted worker reusing its id must
        #: not have its fresh seq=1 delta dropped as a duplicate.
        self.epoch = secrets.token_hex(4)
        self._counter_base: dict[tuple, int] = {}
        self._gauge_last: dict[tuple, float] = {}
        self._hist_base: dict[tuple, tuple[list[int], int, float]] = {}

    def next_delta(self) -> dict[str, Any] | None:
        """The delta since the last call, or ``None`` when nothing changed."""
        counters: list[list] = []
        gauges: list[list] = []
        histograms: list[list] = []
        with self._lock:
            for kind, name, labels, inst in self._registry.instruments():
                key = (kind, name, labels)
                pairs = [list(pair) for pair in labels]
                if kind == "counter":
                    value = inst.value
                    diff = value - self._counter_base.get(key, 0)
                    if diff:
                        counters.append([name, pairs, diff])
                        self._counter_base[key] = value
                elif kind == "gauge":
                    value = inst.value
                    if self._gauge_last.get(key) != value:
                        gauges.append([name, pairs, value])
                        self._gauge_last[key] = value
                else:
                    with inst._lock:
                        counts = list(inst.counts)
                        count, total = inst.count, inst.total
                        low, high = inst.min, inst.max
                    base_counts, base_count, base_total = self._hist_base.get(
                        key, ([0] * len(counts), 0, 0.0)
                    )
                    if count == base_count:
                        continue
                    entry: dict[str, Any] = {
                        "counts": [
                            now - before
                            for now, before in zip(counts, base_counts)
                        ],
                        "count": count - base_count,
                        "total": total - base_total,
                        "min": low,
                        "max": high,
                    }
                    if inst.bounds != DEFAULT_BUCKET_BOUNDS:
                        entry["bounds"] = list(inst.bounds)
                    histograms.append([name, pairs, entry])
                    self._hist_base[key] = (counts, count, total)
            if not counters and not gauges and not histograms:
                return None
            self._seq += 1
            return {
                "seq": self._seq,
                "epoch": self.epoch,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }


class FleetAggregator:
    """Folds worker deltas into per-worker replicas and a fleet-wide view.

    ``apply`` is called from the coordinator's per-worker reader threads;
    the replica registries are internally locked, so concurrent workers
    fold safely.  Because counters and histogram buckets fold by addition
    and gauges apply only when their delta's ``seq`` is the newest seen
    for that series, **any arrival order of a worker's deltas (including
    duplicates) converges to the same replica** — the property the fleet
    aggregation test pins.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._registries: dict[str, MetricsRegistry] = {}
        self._epochs: dict[str, str] = {}
        self._applied: dict[str, set[int]] = {}
        self._gauge_seq: dict[tuple, int] = {}
        self.deltas_applied = 0

    def apply(self, worker_id: str, delta: Any) -> bool:
        """Fold one delta in; ``False`` for duplicates or malformed input."""
        if not isinstance(delta, dict):
            return False
        seq = delta.get("seq")
        epoch = delta.get("epoch", "")
        if not isinstance(seq, int):
            return False
        with self._lock:
            if self._epochs.get(worker_id) != epoch:
                # Worker (re)started: cumulative baselines reset over there,
                # so the replica must reset here or restarts double-count.
                self._epochs[worker_id] = epoch
                self._registries[worker_id] = MetricsRegistry()
                self._applied[worker_id] = set()
                self._gauge_seq = {
                    key: value
                    for key, value in self._gauge_seq.items()
                    if key[0] != worker_id
                }
            applied = self._applied[worker_id]
            if seq in applied:
                return False
            applied.add(seq)
            registry = self._registries[worker_id]
            self.deltas_applied += 1
        for name, pairs, increment in delta.get("counters", ()):
            registry.counter(name, **dict(pairs)).inc(increment)
        for name, pairs, value in delta.get("gauges", ()):
            key = (worker_id, name, tuple(tuple(p) for p in pairs))
            with self._lock:
                newest = seq >= self._gauge_seq.get(key, 0)
                if newest:
                    self._gauge_seq[key] = seq
            if newest:
                registry.gauge(name, **dict(pairs)).set(value)
        for name, pairs, entry in delta.get("histograms", ()):
            bounds = tuple(entry.get("bounds", DEFAULT_BUCKET_BOUNDS))
            shard = Histogram(name, bounds=bounds)
            shard.counts = list(entry["counts"])
            shard.count = int(entry["count"])
            shard.total = float(entry["total"])
            if shard.count:
                shard.min = float(entry["min"])
                shard.max = float(entry["max"])
            registry.histogram(name, bounds, **dict(pairs)).merge(shard)
        return True

    def worker_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._registries)

    def worker_registry(self, worker_id: str) -> MetricsRegistry | None:
        with self._lock:
            return self._registries.get(worker_id)

    def fleet_registry(self) -> MetricsRegistry:
        """A fresh registry holding the merge of every worker's replica.

        Counters and histograms fold additively; gauges fold by *sum*
        (e.g. fleet queue depth is the sum of per-worker depths).
        """
        merged = MetricsRegistry()
        with self._lock:
            replicas = list(self._registries.values())
        for replica in replicas:
            for kind, name, labels, inst in replica.instruments():
                pairs = dict(labels)
                if kind == "counter":
                    merged.counter(name, **pairs).inc(inst.value)
                elif kind == "gauge":
                    target = merged.gauge(name, **pairs)
                    target.set(target.value + inst.value)
                else:
                    merged.histogram(name, inst.bounds, **pairs).merge(inst)
        return merged

    def snapshot(self) -> dict[str, Any]:
        """One combined snapshot: per-worker labeled series + fleet totals.

        Per-worker series carry a ``worker=<id>`` label; the fleet-merged
        totals keep the bare series names.  Shape-compatible with
        :meth:`MetricsRegistry.snapshot`, so the exporter merges it like
        any other source.
        """
        combined = self.fleet_registry().snapshot()
        with self._lock:
            replicas = list(self._registries.items())
        for worker_id, replica in replicas:
            part = replica.snapshot(worker=worker_id)
            for section in ("counters", "gauges", "histograms"):
                combined[section].update(part[section])
        return combined
