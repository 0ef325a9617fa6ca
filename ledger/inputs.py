"""Workload inputs: from ``--seed`` to data sets of a fixed size and shape.

The same seed always gives the same inputs.  What the seed must *not* decide
is how much work a corpus is, because the synthetic generators draw that from
the seed too: a snowy week thins the taxi stream tenfold, and
``nyc_open_collection`` flips coins per data set between 1 and ~25 regions,
daily and weekly records, 1 to 3 attributes.  Left alone, corpus size swings
by 20% from seed to seed (partition and function counts of the open corpus by
more), every size-driven metric swings with it, and the changes the ledger
exists to show drown.  So the seed decides the content and the workload
decides the size:

* urban corpora: of the generator seeds ``32 * seed + k`` the first whose
  corpus is within 2% of the workload's ``target_records`` is used (the
  closest, if none is);
* the open corpus is assembled to a fixed mix — per native resolution and
  attribute count — from as many ``nyc_open_collection`` draws as it takes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro import Dataset
from repro.synth import nyc_open_collection, nyc_urban_collection

from .workloads import Workload

SEED_CANDIDATES = 32
SIZE_TOLERANCE = 0.02

#: Share of the open corpus per native (spatial, temporal) resolution: the
#: generator's own expectation (zip or city 1:1, day or week 7:3), in the
#: order the corpus lists them.
OPEN_MIX = (
    (("zip", "day"), 0.35),
    (("zip", "week"), 0.15),
    (("city", "day"), 0.35),
    (("city", "week"), 0.15),
)
OPEN_MAX_ATTRIBUTES = 3


def total_records(datasets: list[Dataset]) -> int:
    return sum(d.n_records for d in datasets)


def resolve(w: Workload, seed: int) -> int:
    """The search, done once and off the clock: which generator seed (urban)
    or how many generator draws (open) give this workload's size and shape.
    :func:`synthesize` then makes the inputs without searching again."""
    if w.corpus == "open":
        return _open_corpus(w, seed, SEED_CANDIDATES)[2]
    first = abs(seed) * SEED_CANDIDATES
    if not w.target_records:
        return first
    errors = []
    for candidate in range(first, first + SEED_CANDIDATES):
        coll = nyc_urban_collection(candidate, n_days=w.n_days, scale=w.scale)
        error = abs(total_records(coll.datasets) - w.target_records) / w.target_records
        if error <= SIZE_TOLERANCE:
            return candidate
        errors.append((error, candidate))
    return min(errors)[1]


def synthesize(w: Workload, seed: int, resolved: int) -> tuple[list[Dataset], Any]:
    """``(datasets, city)`` of workload ``w``; ``resolved = resolve(w, seed)``."""
    if w.corpus == "open":
        return _open_corpus(w, seed, resolved)[:2]
    coll = nyc_urban_collection(resolved, n_days=w.n_days, scale=w.scale)
    return coll.datasets, coll.city


def _open_quotas(n_datasets: int) -> dict[tuple[str, str, int], int]:
    """How many data sets of each (spatial, temporal, n_attributes) class."""
    quotas: dict[tuple[str, str, int], int] = {}
    remaining = n_datasets
    for i, ((spatial, temporal), share) in enumerate(OPEN_MIX):
        last = i == len(OPEN_MIX) - 1
        count = remaining if last else min(remaining, round(share * n_datasets))
        remaining -= count
        for j in range(count):
            key = (spatial, temporal, j % OPEN_MAX_ATTRIBUTES + 1)
            quotas[key] = quotas.get(key, 0) + 1
    return quotas


def _open_corpus(
    w: Workload, seed: int, max_draws: int
) -> tuple[list[Dataset], Any, int]:
    """Fill the quotas from up to ``max_draws`` generator draws; returns the
    data sets, the city and the number of draws it took."""
    quotas = _open_quotas(w.n_datasets)
    picked: dict[tuple[str, str, int], list[Dataset]] = {k: [] for k in quotas}
    city = None
    draws = 0
    for k in range(max_draws):
        draws += 1
        pool = nyc_open_collection(
            n_datasets=3 * w.n_datasets,
            seed=abs(seed) * SEED_CANDIDATES + k,
            n_days=w.n_days,
            max_attributes=OPEN_MAX_ATTRIBUTES,
        )
        if city is None:
            city = pool.city
        for dataset in pool.datasets:
            schema = dataset.schema
            key = (
                schema.spatial_resolution.value,
                schema.temporal_resolution.value,
                len(schema.numeric_attributes),
            )
            if key in quotas and len(picked[key]) < quotas[key]:
                picked[key].append(dataset)
        if all(len(picked[key]) == quotas[key] for key in quotas):
            break
    # Class order, then draw order; renamed because names repeat across draws.
    ordered = [d for key in quotas for d in picked[key]]
    datasets = [
        Dataset(
            replace(d.schema, name=f"open_{i:03d}"),
            timestamps=d.timestamps,
            regions=d.regions,
            numerics=d.numerics,
        )
        for i, d in enumerate(ordered)
    ]
    return datasets, city, draws


def alternate(datasets: list[Dataset]) -> Dataset:
    """The ``update`` operation's other version of one data set: taxi (on
    the open corpus: its first data set, zip x day) with every attribute
    column reversed.  Same schema and exactly the same size, different
    content, so every partition of that data set is rebuilt.  (Taxi
    regenerated from another seed would change size with the weather.)"""
    target = next((d for d in datasets if d.name == "taxi"), datasets[0])
    return Dataset(
        target.schema,
        timestamps=target.timestamps,
        x=target.x,
        y=target.y,
        regions=target.regions,
        keys=target.keys,
        numerics={k: v[::-1].copy() for k, v in target.numerics.items()},
    )
