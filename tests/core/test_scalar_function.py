"""Tests for the ScalarFunction wrapper (§2.1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.scalar_function import ScalarFunction
from repro.data.aggregation import FunctionSpec, aggregate
from repro.data.dataset import Dataset
from repro.data.schema import DatasetSchema
from repro.graph.domain_graph import DomainGraph
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution
from repro.utils.errors import DataError


class TestConstruction:
    def test_shape_must_match_graph(self):
        graph = DomainGraph(2, 3, np.array([[0, 1]]))
        with pytest.raises(DataError):
            ScalarFunction(
                "f",
                np.zeros((3, 3)),
                graph,
                SpatialResolution.NEIGHBORHOOD,
                TemporalResolution.HOUR,
            )

    def test_nan_rejected(self):
        graph = DomainGraph(1, 2)
        with pytest.raises(DataError):
            ScalarFunction(
                "f",
                np.array([[1.0], [np.nan]]),
                graph,
                SpatialResolution.CITY,
                TemporalResolution.HOUR,
            )

    def test_time_series_constructor(self):
        sf = ScalarFunction.time_series("a.v", [1.0, 2.0, 3.0])
        assert sf.n_regions == 1
        assert sf.n_steps == 3
        assert sf.graph.is_time_series
        assert sf.dataset == "a"

    def test_from_aggregated(self):
        schema = DatasetSchema(
            "d",
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
        )
        ds = Dataset(schema, timestamps=np.array([0, 3600, 7200]))
        (agg,) = aggregate(
            ds,
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
            specs=[FunctionSpec("d", "density")],
        )
        sf = ScalarFunction.from_aggregated(agg)
        assert sf.function_id == "d.density"
        assert sf.values[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert np.array_equal(sf.graph.step_labels, agg.step_labels)


class TestVertexOrder:
    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=1, max_size=40))
    def test_property_descending_is_reverse_of_ascending(self, values):
        # FeatureExtractor sorts once and sweeps the split tree over the
        # reversed join order; ties (signed zeros included) must not tell
        # the two apart.
        sf = ScalarFunction.time_series("t.f", values)
        desc = sf.vertex_order(descending=True)
        asc = sf.vertex_order(descending=False)
        assert desc.tolist() == asc[::-1].tolist()

    def test_ties_broken_by_vertex_id(self):
        sf = ScalarFunction.time_series("t.f", [1.0, 1.0, 1.0])
        assert sf.vertex_order(descending=False).tolist() == [0, 1, 2]
        assert sf.vertex_order(descending=True).tolist() == [2, 1, 0]


class TestSliceSteps:
    def test_contiguous_slice(self):
        sf = ScalarFunction.time_series("t.f", [0.0, 1.0, 2.0, 3.0, 4.0])
        sliced = sf.slice_steps(np.array([1, 2, 3]))
        assert sliced.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert sliced.graph.step_labels.tolist() == [1, 2, 3]

    def test_non_contiguous_rejected(self):
        sf = ScalarFunction.time_series("t.f", [0.0, 1.0, 2.0])
        with pytest.raises(DataError):
            sf.slice_steps(np.array([0, 2]))

    def test_empty_rejected(self):
        sf = ScalarFunction.time_series("t.f", [0.0, 1.0])
        with pytest.raises(DataError):
            sf.slice_steps(np.array([], dtype=np.int64))


class TestNoise:
    def test_noise_bounded_by_iqr_fraction(self):
        rng_values = np.random.default_rng(0).normal(10, 2, 1000)
        sf = ScalarFunction.time_series("t.f", rng_values)
        level = 0.05
        noisy = sf.with_noise(level, seed=1)
        q1, q3 = np.percentile(sf.values, [25, 75])
        bound = level * (q3 - q1)
        assert np.abs(noisy.values - sf.values).max() <= bound + 1e-12

    def test_zero_level_is_identity(self):
        sf = ScalarFunction.time_series("t.f", [1.0, 5.0, 2.0])
        noisy = sf.with_noise(0.0, seed=0)
        assert np.array_equal(noisy.values, sf.values)

    def test_negative_level_rejected(self):
        sf = ScalarFunction.time_series("t.f", [1.0, 2.0])
        with pytest.raises(DataError):
            sf.with_noise(-0.1)

    def test_nbytes(self):
        sf = ScalarFunction.time_series("t.f", np.zeros(10))
        assert sf.nbytes() == 80
