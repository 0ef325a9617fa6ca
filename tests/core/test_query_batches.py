"""Count guard: a query runs one significance batch per domain chunk.

A count, not a timing gate: the number of ``significance.batch`` spans of
one traced all-pairs query is the sum over (spatial, temporal) domains of
``ceil(candidates / SIGNIFICANCE_CHUNK_TASKS)``.  It does not grow with the
number of data set pairs — which is what batching by domain buys.
"""

import math
from collections import Counter

import pytest

from repro import obs
from repro.core.clause import Clause
from repro.core.operator import SIGNIFICANCE_CHUNK_TASKS, enumerate_pair_tasks


@pytest.fixture(autouse=True)
def no_leaked_trace():
    obs.end_trace()
    yield
    obs.end_trace()


def test_one_significance_batch_per_domain_chunk(small_urban_index):
    trace = obs.start_trace("query")
    result = small_urban_index.query(
        n_permutations=60, seed=0, significance_mode="adaptive"
    )
    obs.end_trace()
    batches = [s for s in trace.spans if s.name == "significance.batch"]

    datasets = small_urban_index.datasets
    pairs = [(r.dataset1, r.dataset2) for r in result.reports]
    plans = enumerate_pair_tasks(datasets, pairs, set(datasets), Clause(), 0, None)
    per_domain = Counter(
        (task.spatial, task.temporal) for _report, tasks in plans for task in tasks
    )
    assert sum(per_domain.values()) == result.n_candidates
    assert len(per_domain) == 4 and max(per_domain.values()) > SIGNIFICANCE_CHUNK_TASKS

    assert len(batches) == sum(
        math.ceil(n / SIGNIFICANCE_CHUNK_TASKS) for n in per_domain.values()
    )
    assert len(batches) < len(pairs) == 10
    assert sum(s.attrs["n_requests"] for s in batches) == result.n_candidates
    for span in batches:
        # Many function pairs over few functions: what the kernels share.
        assert span.attrs["n_pairs"] == span.attrs["n_requests"]
        assert span.attrs["n_functions"] < span.attrs["n_pairs"]
