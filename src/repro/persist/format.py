"""On-disk format of a persisted corpus index (format version 2).

An index directory is a JSON manifest plus one NPZ file per indexed
(data set, resolution) partition::

    idx/
      index.json            # manifest: format version, city model, extractor
                            # config, §5.4 stats, per-partition records
      partitions/
        p0000_taxi_city_hour.npz
        p0001_taxi_city_day.npz
        ...

The partition files are the unit of serialization and correspond 1:1 with
the map outputs of :class:`repro.core.corpus.IndexPartitionJob`, so
incremental maintenance (:mod:`repro.incremental`) can rewrite individual
partitions without touching the rest.  Each NPZ stores, per scalar function:
the raw value matrix (float64, the §5.4 ``function_bytes`` payload), the
step labels, the four feature masks in the packed ``uint64`` bit-vector form
of Appendix C (the ``feature_bytes`` payload), and the per-interval salient
extremum values; the partition's region adjacency is stored once.  Arrays
are written uncompressed so the on-disk byte counts reconcile exactly with
the in-memory :class:`~repro.core.corpus.IndexStats` accounting.

Determinism.  Partition files are byte-deterministic: the NPZ container is
written with pinned zip timestamps (:func:`deterministic_savez`), so the
same functions always serialize to the same bytes.  This is the property
that makes incremental updates *verifiable* — an updated index can be
compared bit-for-bit against a from-scratch rebuild.

Reuse evidence.  What incremental maintenance needs to *prove* a partition
reusable travels with the index:

* each partition record carries a ``fingerprint`` — a SHA-256 content
  fingerprint of the raw inputs that produced the partition (data set
  schema + columns, function specs, city model, extractor config, fill
  policy) — and a ``stats`` record, the partition's own
  :class:`~repro.core.corpus.IndexStats` contribution, so partial rebuilds
  can merge bookkeeping without re-deriving it;
* the manifest carries a top-level ``fingerprints`` object with the
  ``config`` (extractor + fill) and ``city`` digests, letting the update
  planner report *why* everything is being rebuilt, and the ``scope``
  (resolution whitelists) the index was built with.

Integrity.  The manifest records a SHA-256 digest per partition file and a
digest of its own payload (``manifest_sha256`` over the canonical JSON of
every other key).  Any mismatch — as well as a truncated manifest or a
``format_version`` other than the one this build writes — surfaces as
:class:`repro.utils.errors.PersistError`, never as a raw numpy/JSON
traceback.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np

from ..core.features import (
    FeatureExtractor,
    FeatureSet,
    FunctionFeatures,
    IntervalReport,
)
from ..core.operator import IndexedFunction
from ..core.scalar_function import ScalarFunction
from ..core.thresholds import SalientThresholds
from ..graph.domain_graph import DomainGraph
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.bitvector import BitVector
from ..utils.errors import PersistError

FORMAT_NAME = "repro-corpus-index"
#: The one version this build writes — and therefore the one it reads.
FORMAT_VERSION = 2
INDEX_MANIFEST = "index.json"
PARTITION_DIR = "partitions"

#: Pinned zip member timestamp (the zip epoch): partition bytes must depend
#: on array content only, never on the wall clock at save time.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

#: NPZ key suffixes of the four packed feature-mask channels, in a fixed
#: order shared by the writer, the reader, and the disk-usage accounting.
_MASK_KEYS = ("salient_pos", "salient_neg", "extreme_pos", "extreme_neg")


def manifest_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a manifest payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def deterministic_savez(buffer, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` with byte-deterministic output.

    ``np.savez`` stamps each zip member with the current local time, so two
    saves of identical arrays differ on disk.  Incremental maintenance needs
    the converse guarantee — same content, same bytes — so the members are
    written with a pinned timestamp (and, like ``np.savez``, stored
    uncompressed: §5.4 byte reconciliation).
    """
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o600 << 16  # fixed mode bits, not umask
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(array), allow_pickle=False
                )


def partition_filename(
    seq: int, dataset: str, spatial: SpatialResolution, temporal: TemporalResolution
) -> str:
    """Stable, filesystem-safe name of one partition file."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "-", dataset)
    return f"p{seq:04d}_{safe}_{spatial.value}_{temporal.value}.npz"


def extractor_to_dict(extractor: FeatureExtractor) -> dict:
    """JSON-serializable form of a feature-extractor configuration."""
    return {
        "seasonal": bool(extractor.seasonal),
        "use_index": bool(extractor.use_index),
        "extreme_fence": float(extractor.extreme_fence),
        "max_feature_fraction": float(extractor.max_feature_fraction),
    }


def extractor_from_dict(data: dict) -> FeatureExtractor:
    """Inverse of :func:`extractor_to_dict`."""
    try:
        return FeatureExtractor(
            seasonal=bool(data["seasonal"]),
            use_index=bool(data["use_index"]),
            extreme_fence=float(data["extreme_fence"]),
            max_feature_fraction=float(data["max_feature_fraction"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"malformed extractor record: {exc}") from exc


def _optional_float(value: float | None) -> float | None:
    return None if value is None else float(value)


def write_partition(path: Path, functions: list[IndexedFunction]) -> dict:
    """Write one partition's functions to ``path`` (NPZ, uncompressed).

    Returns the partition's manifest metadata: one record per function
    (identifier, extreme thetas, per-interval scalar fields) in file order,
    plus the ``bytes`` breakdown of the array payload by category (§5.4
    accounting, so :func:`~repro.persist.index_io.disk_usage` never has to
    decode the arrays again) and the file's ``sha256``/``nbytes`` — the NPZ
    is serialized in memory, hashed, and written in one pass.  The caller
    owns the enclosing record (resolution, file name).
    """
    arrays: dict[str, np.ndarray] = {}
    if functions:
        arrays["spatial_pairs"] = functions[0].function.graph.spatial_pairs
    else:
        arrays["spatial_pairs"] = np.zeros((0, 2), dtype=np.int64)
    nbytes = {"function": 0, "feature": 0, "threshold": 0, "structure": 0}
    nbytes["structure"] += int(arrays["spatial_pairs"].nbytes)

    records: list[dict] = []
    for i, indexed in enumerate(functions):
        function, features = indexed.function, indexed.features
        # The adjacency is stored once per partition; every function must
        # share it, else the reader would silently reattach the wrong graph.
        if not np.array_equal(function.graph.spatial_pairs, arrays["spatial_pairs"]):
            raise PersistError(
                f"{function.function_id}: functions of one partition must "
                "share their spatial adjacency"
            )
        prefix = f"f{i:04d}"
        arrays[f"{prefix}__values"] = function.values
        arrays[f"{prefix}__steps"] = function.graph.step_labels
        nbytes["function"] += int(function.values.nbytes)
        nbytes["structure"] += int(function.graph.step_labels.nbytes)
        masks = features.salient.to_bitvectors() + features.extreme.to_bitvectors()
        for suffix, vector in zip(_MASK_KEYS, masks):
            arrays[f"{prefix}__{suffix}"] = vector.words
            nbytes["feature"] += vector.nbytes()

        intervals: list[dict] = []
        for j, report in enumerate(features.intervals):
            arrays[f"{prefix}__iv{j:03d}__max"] = report.thresholds.salient_max_values
            arrays[f"{prefix}__iv{j:03d}__min"] = report.thresholds.salient_min_values
            nbytes["threshold"] += int(
                report.thresholds.salient_max_values.nbytes
                + report.thresholds.salient_min_values.nbytes
            )
            intervals.append(
                {
                    "step_start": int(report.step_start),
                    "step_stop": int(report.step_stop),
                    "theta_pos": _optional_float(report.thresholds.theta_pos),
                    "theta_neg": _optional_float(report.thresholds.theta_neg),
                    "n_maxima": int(report.n_maxima),
                    "n_minima": int(report.n_minima),
                }
            )
        records.append(
            {
                "function_id": function.function_id,
                "dataset": function.dataset,
                "extreme_theta_pos": _optional_float(features.extreme_theta_pos),
                "extreme_theta_neg": _optional_float(features.extreme_theta_neg),
                "intervals": intervals,
            }
        )

    # Uncompressed on purpose: on-disk array bytes == IndexStats accounting.
    # Serialized to memory first so the checksum never re-reads the file.
    buffer = io.BytesIO()
    deterministic_savez(buffer, arrays)
    payload = buffer.getvalue()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return {
        "functions": records,
        "bytes": nbytes,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "nbytes": len(payload),
    }


def read_partition(
    path: Path,
    record: dict,
    spatial: SpatialResolution,
    temporal: TemporalResolution,
    data: bytes | None = None,
) -> list[IndexedFunction]:
    """Rebuild one partition's :class:`IndexedFunction` list from disk.

    ``record`` is the partition's manifest entry (function metadata in file
    order).  Pass ``data`` when the file content is already in memory (the
    load job reads it once for checksum verification); ``path`` is then only
    used in error messages.  Malformed or truncated files raise
    :class:`PersistError`.
    """
    source = io.BytesIO(data) if data is not None else path
    try:
        with np.load(source) as npz:
            return _decode_partition(npz, record, spatial, temporal)
    except PersistError:
        raise
    except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
        raise PersistError(f"{path.name}: corrupt partition file: {exc}") from exc


def _decode_partition(
    npz, record: dict, spatial: SpatialResolution, temporal: TemporalResolution
) -> list[IndexedFunction]:
    spatial_pairs = np.asarray(npz["spatial_pairs"], dtype=np.int64).reshape(-1, 2)
    functions: list[IndexedFunction] = []
    for i, meta in enumerate(record["functions"]):
        prefix = f"f{i:04d}"
        values = npz[f"{prefix}__values"]
        if values.ndim != 2:
            raise PersistError(
                f"{prefix}: value matrix must be 2-D, got shape {values.shape}"
            )
        steps = npz[f"{prefix}__steps"]
        graph = DomainGraph(
            n_regions=values.shape[1],
            n_steps=values.shape[0],
            spatial_pairs=spatial_pairs,
            step_labels=steps,
        )
        function = ScalarFunction(
            function_id=meta["function_id"],
            values=values,
            graph=graph,
            spatial=spatial,
            temporal=temporal,
            dataset=meta["dataset"],
        )

        unpacked = [
            BitVector.from_words(values.size, npz[f"{prefix}__{suffix}"])
            .to_bools()
            .reshape(values.shape)
            for suffix in _MASK_KEYS
        ]
        salient = FeatureSet(unpacked[0], unpacked[1])
        extreme = FeatureSet(unpacked[2], unpacked[3])

        intervals: list[IntervalReport] = []
        for j, interval in enumerate(meta["intervals"]):
            thresholds = SalientThresholds(
                theta_pos=interval["theta_pos"],
                theta_neg=interval["theta_neg"],
                salient_max_values=npz[f"{prefix}__iv{j:03d}__max"],
                salient_min_values=npz[f"{prefix}__iv{j:03d}__min"],
            )
            intervals.append(
                IntervalReport(
                    step_start=interval["step_start"],
                    step_stop=interval["step_stop"],
                    thresholds=thresholds,
                    n_maxima=interval["n_maxima"],
                    n_minima=interval["n_minima"],
                )
            )
        features = FunctionFeatures(
            function_id=meta["function_id"],
            salient=salient,
            extreme=extreme,
            extreme_theta_pos=meta["extreme_theta_pos"],
            extreme_theta_neg=meta["extreme_theta_neg"],
            intervals=intervals,
        )
        functions.append(IndexedFunction(function=function, features=features))
    return functions
