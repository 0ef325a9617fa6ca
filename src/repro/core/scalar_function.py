"""Time-varying scalar functions on the spatio-temporal domain (§2.1, §3.1).

A :class:`ScalarFunction` couples an ``(n_steps, n_regions)`` value matrix
with the :class:`~repro.graph.DomainGraph` it lives on.  The function is
piecewise linear: defined on the graph's vertices, interpolated along edges.
Vertex ``step * n_regions + region`` carries ``values[step, region]``, so the
flattened (C-order) matrix is exactly the vertex-indexed value array.

Simulated perturbation (§B.1) is realized as a total order on vertices:
vertices are compared by ``(value, vertex_id)``; no data is mutated, but all
topological computations (merge trees, level-set traversals) use this strict
order, which makes every PL function effectively Morse.
"""

from __future__ import annotations

import numpy as np

from ..data.aggregation import AggregatedFunction
from ..graph.domain_graph import DomainGraph
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.errors import DataError
from ..utils.rng import RngLike, ensure_rng


class ScalarFunction:
    """A scalar function ``f : S x T -> R`` represented on a domain graph.

    Parameters
    ----------
    function_id:
        Stable identifier, e.g. ``"taxi.density"``.
    values:
        ``(n_steps, n_regions)`` float64 matrix; NaN is rejected (apply a fill
        policy during aggregation first).
    graph:
        The domain graph; its shape must match ``values``.
    spatial, temporal:
        Resolution of the matrix.
    dataset:
        Name of the data set the function was derived from.
    """

    def __init__(
        self,
        function_id: str,
        values: np.ndarray,
        graph: DomainGraph,
        spatial: SpatialResolution,
        temporal: TemporalResolution,
        dataset: str = "",
    ) -> None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError(f"{function_id}: values must be a 2-D matrix")
        if vals.shape != (graph.n_steps, graph.n_regions):
            raise DataError(
                f"{function_id}: values shape {vals.shape} does not match the "
                f"domain graph ({graph.n_steps}, {graph.n_regions})"
            )
        if not np.isfinite(vals).all():
            raise DataError(
                f"{function_id}: values must be finite (no NaN/inf); "
                "apply a fill policy during aggregation first"
            )
        self.function_id = function_id
        self.values = vals
        self.graph = graph
        self.spatial = spatial
        self.temporal = temporal
        self.dataset = dataset or function_id.split(".", 1)[0]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_aggregated(
        cls, agg: AggregatedFunction, spatial_pairs: np.ndarray | None = None
    ) -> "ScalarFunction":
        """Wrap an :class:`AggregatedFunction` with its domain graph.

        ``spatial_pairs`` is the region adjacency at the function's spatial
        resolution (omit for city-resolution time series).
        """
        graph = DomainGraph(
            n_regions=agg.n_regions,
            n_steps=agg.n_steps,
            spatial_pairs=spatial_pairs,
            step_labels=agg.step_labels,
        )
        return cls(
            function_id=agg.spec.function_id,
            values=agg.values,
            graph=graph,
            spatial=agg.spatial,
            temporal=agg.temporal,
            dataset=agg.spec.dataset,
        )

    @classmethod
    def time_series(
        cls,
        function_id: str,
        values: np.ndarray,
        temporal: TemporalResolution = TemporalResolution.HOUR,
        step_labels: np.ndarray | None = None,
    ) -> "ScalarFunction":
        """A purely temporal (city-resolution, 1-D) function."""
        vals = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        graph = DomainGraph(1, vals.shape[0], step_labels=step_labels)
        return cls(function_id, vals, graph, SpatialResolution.CITY, temporal)

    # -- views ---------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        """Number of time steps."""
        return int(self.values.shape[0])

    @property
    def n_regions(self) -> int:
        """Number of spatial regions."""
        return int(self.values.shape[1])

    @property
    def n_vertices(self) -> int:
        """Number of domain-graph vertices."""
        return self.graph.n_vertices

    def flat_values(self) -> np.ndarray:
        """Vertex-indexed value array (C-order flattening of the matrix)."""
        return self.values.ravel()

    # -- simulated perturbation ------------------------------------------------

    def vertex_order(self, descending: bool = True) -> np.ndarray:
        """Vertex ids sorted by the perturbed total order.

        Descending order compares by ``(-value, -vertex_id)``; ascending by
        ``(value, vertex_id)``.  Mirroring the tie-break along with the value
        direction keeps the two sweeps (join/split) consistent: for any pair
        of equal-valued vertices the one treated as *higher* in the join sweep
        is also *higher* in the split sweep.  It also makes the ascending
        order exactly the descending one reversed.
        """
        flat = self.flat_values()
        ids = np.arange(flat.size)
        if descending:
            return np.lexsort((-ids, -flat))
        return np.lexsort((ids, flat))

    # -- transformations -------------------------------------------------------

    def slice_steps(self, step_positions: np.ndarray) -> "ScalarFunction":
        """Restrict the function to a contiguous range of time-step positions.

        Used for seasonal-interval processing (§3.3): thresholds and merge
        trees are computed per interval.  ``step_positions`` must be
        consecutive positions into the current step axis.
        """
        pos = np.asarray(step_positions, dtype=np.int64)
        if pos.size == 0:
            raise DataError("cannot slice a function to zero time steps")
        if not np.array_equal(pos, np.arange(pos[0], pos[0] + pos.size)):
            raise DataError("seasonal interval slices must be contiguous")
        return ScalarFunction(
            function_id=self.function_id,
            values=self.values[pos, :],
            graph=self.graph.slice_steps(pos),
            spatial=self.spatial,
            temporal=self.temporal,
            dataset=self.dataset,
        )

    def with_noise(self, level: float, seed: RngLike = None) -> "ScalarFunction":
        """Gaussian noise bounded by ``level`` x IQR of the function (§6.2).

        The paper's robustness experiment adds random Gaussian noise to every
        spatio-temporal point, with the noise *amount bounded by a fraction of
        the inter-quartile range*.  We draw from N(0, (level*IQR/2)^2) and
        clip to ±level*IQR, which keeps ~95% of draws unclipped while
        enforcing the bound.
        """
        if level < 0:
            raise DataError("noise level must be >= 0")
        rng = ensure_rng(seed)
        q1, q3 = np.percentile(self.values, [25.0, 75.0])
        bound = level * (q3 - q1)
        noise = rng.normal(0.0, bound / 2.0 if bound > 0 else 0.0, self.values.shape)
        noise = np.clip(noise, -bound, bound)
        return ScalarFunction(
            function_id=f"{self.function_id}+noise",
            values=self.values + noise,
            graph=self.graph,
            spatial=self.spatial,
            temporal=self.temporal,
            dataset=self.dataset,
        )

    def nbytes(self) -> int:
        """Storage footprint of the value matrix (§5.4 space accounting)."""
        return int(self.values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScalarFunction({self.function_id!r}, steps={self.n_steps}, "
            f"regions={self.n_regions}, {self.spatial.name}/{self.temporal.name})"
        )
