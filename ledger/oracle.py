"""The correctness oracle: content digests of indexes and query results.

Digests are always computed off the clock.  The invariants the run checks
with them (each mismatch marks the operation as failed):

* a loaded index equals the index it was saved from;
* rebuilding the same corpus, and repeating a query with the same seed,
  gives identical content;
* on the thread / process / cluster workloads, the index and the query
  result equal those of a serial run over the same corpus;
* an incrementally updated index equals a from-scratch build (traced run).
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def index_digest(index: Any) -> str:
    """SHA-256 over every indexed function, in the index's own order:
    identifier, resolution, function values and the packed positive /
    negative bit-vectors of both feature channels."""
    h = hashlib.sha256()
    for name, ds_index in index.datasets.items():
        h.update(name.encode())
        for (spatial, temporal), functions in ds_index.functions.items():
            h.update(f"|{spatial.value}|{temporal.value}|{len(functions)}".encode())
            for fn in functions:
                h.update(fn.function_id.encode())
                values = np.ascontiguousarray(fn.function.values, dtype=np.float64)
                h.update(str(values.shape).encode())
                h.update(values.tobytes())
                for channel in (fn.features.salient, fn.features.extreme):
                    h.update(np.packbits(channel.positive).tobytes())
                    h.update(np.packbits(channel.negative).tobytes())
    return h.hexdigest()


def query_digest(result: Any) -> str:
    """SHA-256 over a query's counters and every significant relationship
    (identifiers, resolution, channel, score, strength and p-value as
    exact ``repr``), in result order."""
    h = hashlib.sha256()
    h.update(
        f"{result.n_evaluated}|{result.n_candidates}|{result.n_significant}".encode()
    )
    for r in result.results:
        h.update(
            "|".join(
                (
                    r.dataset1,
                    r.dataset2,
                    r.function1,
                    r.function2,
                    r.spatial.value,
                    r.temporal.value,
                    r.feature_type,
                    repr(float(r.score)),
                    repr(float(r.strength)),
                    repr(float(r.p_value)),
                    str(r.n_related),
                )
            ).encode()
        )
    return h.hexdigest()
