"""Shared fixtures for the unit/integration suite."""

import pytest


@pytest.fixture(scope="session")
def cluster_engine():
    """A 2-host localhost cluster shared by the whole session.

    Lazy: the workers are only spawned when the first cluster-parametrized
    test runs.  Torn down (leak-free) at session end.  Tests that *break*
    their cluster on purpose (fault injection) must spawn their own via
    :func:`repro.distributed.local_cluster` instead of using this one.
    """
    from repro.distributed import local_cluster

    with local_cluster(2) as engine:
        yield engine


@pytest.fixture(scope="session")
def small_urban_index():
    """Five urban data sets (ten pairs) at city and neighborhood x day and
    hour: every domain's candidates come from several data set pairs, so a
    query's domain chunks mix pairs, rotations and toroidal shifts."""
    from repro.core.corpus import Corpus
    from repro.spatial.resolution import SpatialResolution
    from repro.synth import nyc_urban_collection
    from repro.temporal.resolution import TemporalResolution

    coll = nyc_urban_collection(
        seed=5,
        n_days=12,
        scale=0.2,
        subset=("taxi", "weather", "citibike", "collisions", "traffic_speed"),
    )
    return Corpus(coll.datasets, coll.city).build_index(
        spatial=(SpatialResolution.CITY, SpatialResolution.NEIGHBORHOOD),
        temporal=(TemporalResolution.DAY, TemporalResolution.HOUR),
    )
