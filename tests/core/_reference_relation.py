"""``relation(D1, D2)`` the way §5.3 states it: one function pair at a time.

The per-pair evaluation loop that ``repro.core.operator`` ran before it
scored by count table — resolve both functions' features, slice them to the
overlapping step range, compare, and run the restricted Monte Carlo test on
the feature-related pairs.  It left ``src/`` and is kept here as the oracle:
the table path must return the same report, field for field.
"""

import numpy as np

from repro.core.clause import Clause
from repro.core.features import FeatureExtractor
from repro.core.operator import (
    RelationReport,
    RelationshipResult,
    _overlap_slices,
    _pair_seed,
)
from repro.core.relationship import evaluate_features
from repro.core.significance import significance_test


def reference_relation(
    index1, index2, clause=None, n_permutations=1000, seed=0, extractor=None
):
    clause = clause or Clause()
    extractor = extractor or FeatureExtractor()
    base_seed = int(np.random.default_rng(seed).integers(2**62))

    def resolve(fn, feature_type):
        custom = clause.thresholds.get(fn.function_id)
        if custom is None:
            return fn.feature_set(feature_type)
        return extractor.extract_with_thresholds(fn.function, *custom)

    report = RelationReport(dataset1=index1.dataset, dataset2=index2.dataset)
    for key in index1.resolutions():
        spatial, temporal = key
        if key not in index2.functions or not clause.admits_resolution(*key):
            continue
        for fn1 in index1.functions[key]:
            for fn2 in index2.functions[key]:
                graph1, graph2 = fn1.function.graph, fn2.function.graph
                slices = _overlap_slices(graph1.step_labels, graph2.step_labels)
                if slices is None:
                    continue
                s1, s2 = slices
                for feature_type in clause.feature_types:
                    report.n_evaluated += 1
                    fs1 = resolve(fn1, feature_type).slice_steps(s1.start, s1.stop)
                    fs2 = resolve(fn2, feature_type).slice_steps(s2.start, s2.stop)
                    measures = evaluate_features(fs1, fs2)
                    if not measures.is_related or not clause.admits_measures(measures):
                        continue
                    report.n_candidates += 1
                    sig = significance_test(
                        fs1,
                        fs2,
                        graph1.slice_steps(s1),
                        n_permutations=n_permutations,
                        seed=_pair_seed(
                            base_seed,
                            fn1.function_id,
                            fn2.function_id,
                            spatial.value,
                            temporal.value,
                            feature_type,
                        ),
                    )
                    if not sig.is_significant(clause.alpha):
                        continue
                    report.results.append(
                        RelationshipResult(
                            dataset1=index1.dataset,
                            dataset2=index2.dataset,
                            function1=fn1.function_id,
                            function2=fn2.function_id,
                            spatial=spatial,
                            temporal=temporal,
                            feature_type=feature_type,
                            score=measures.score,
                            strength=measures.strength,
                            p_value=sig.p_value,
                            n_related=measures.n_related,
                            precision=measures.precision,
                            recall=measures.recall,
                        )
                    )
    report.n_significant = len(report.results)
    return report
