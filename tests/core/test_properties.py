"""Cross-cutting property tests on the topology core.

These check mathematical invariants the implementation must satisfy:

* **Persistence stability** (Cohen-Steiner et al., cited as [8]): perturbing
  the function by at most ε changes the maximum persistence by at most 2ε —
  the property §6.2 credits for the framework's robustness.
* **Toroidal maps are bijections** on arbitrary grid graphs.
* **Aggregation conservation**: density mass is preserved across resolution
  changes (coarser time = summed counts; coarser space = summed regions).
* **Relationship-score invariance**: τ and ρ are invariant under any
  simultaneous relabeling of the spatio-temporal points of both functions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureSet
from repro.core.merge_tree import compute_join_tree
from repro.core.relationship import evaluate_features
from repro.core.scalar_function import ScalarFunction
from repro.core.significance import toroidal_map
from repro.spatial.adjacency import grid_adjacency, neighbors_from_pairs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=50),
    st.floats(min_value=0.001, max_value=0.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_max_persistence_stable_under_perturbation(values, eps, seed):
    sf = ScalarFunction.time_series("p.v", values)
    tree = compute_join_tree(sf.graph, sf.flat_values())
    base_max = tree.persistence.max()

    rng = np.random.default_rng(seed)
    noise = rng.uniform(-eps, eps, len(values))
    noisy = ScalarFunction.time_series("p.n", np.asarray(values) + noise)
    noisy_tree = compute_join_tree(noisy.graph, noisy.flat_values())
    noisy_max = noisy_tree.persistence.max()

    assert abs(noisy_max - base_max) <= 2 * eps + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_toroidal_maps_are_bijections(nx, ny, seed):
    n = nx * ny
    neighbors = neighbors_from_pairs(n, grid_adjacency(nx, ny))
    rng = np.random.default_rng(seed)
    image = toroidal_map(neighbors, rng)
    assert sorted(image.tolist()) == list(range(n))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_density_mass_conserved_across_resolutions(seed):
    from repro.data.aggregation import FunctionSpec, aggregate
    from repro.data.dataset import Dataset
    from repro.data.schema import DatasetSchema
    from repro.spatial.regions import grid_partition
    from repro.spatial.resolution import SpatialResolution
    from repro.temporal.resolution import TemporalResolution

    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 300))
    schema = DatasetSchema("d", SpatialResolution.GPS, TemporalResolution.SECOND)
    ds = Dataset(
        schema,
        timestamps=rng.integers(0, 10 * 86400, n),
        x=rng.uniform(0.001, 3.999, n),
        y=rng.uniform(0.001, 3.999, n),
    )
    grid = grid_partition(4, 4, 0, 0, 4, 4)
    spec = [FunctionSpec("d", "density")]
    (hour_nbhd,) = aggregate(
        ds,
        SpatialResolution.NEIGHBORHOOD,
        TemporalResolution.HOUR,
        regions=grid,
        specs=spec,
    )
    (day_city,) = aggregate(
        ds, SpatialResolution.CITY, TemporalResolution.DAY, specs=spec
    )
    # Total mass equals the record count at every resolution.
    assert hour_nbhd.values.sum() == n
    assert day_city.values.sum() == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_scores_invariant_under_shared_relabeling(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 15)), int(rng.integers(1, 5)))
    size = shape[0] * shape[1]

    def random_fs():
        pos = rng.uniform(size=shape) < 0.3
        neg = (rng.uniform(size=shape) < 0.3) & ~pos
        return FeatureSet(pos, neg)

    fs1, fs2 = random_fs(), random_fs()
    base = evaluate_features(fs1, fs2)

    perm = rng.permutation(size)

    def relabel(fs):
        return FeatureSet(
            fs.positive.ravel()[perm].reshape(shape),
            fs.negative.ravel()[perm].reshape(shape),
        )

    relabeled = evaluate_features(relabel(fs1), relabel(fs2))
    assert relabeled.score == base.score
    assert relabeled.strength == base.strength
    assert relabeled.n_related == base.n_related
