"""Whole-index save/load on top of the partition format (:mod:`.format`).

Both directions run through the map-reduce engine, mirroring how the index
was built in the first place:

* :class:`PartitionSaveJob` maps over (data set, resolution) partitions,
  writing one NPZ file each (parallelizable — NumPy I/O releases the GIL),
  and reduces the per-file records into the manifest's partition list.
* :class:`PartitionLoadJob` maps over manifest records — checksum
  verification plus NPZ decoding per partition — and reduces them into one
  :class:`~repro.core.operator.DatasetIndex` per data set, exactly like
  :class:`~repro.core.corpus.IndexPartitionJob` does when indexing from
  scratch.

A loaded index therefore answers queries **bit-identically** to the freshly
built index it was saved from, under serial and threaded execution alike:
data set order, per-resolution function order, value matrices, feature
masks, and the extractor configuration are all preserved, and per-pair RNG
seeds depend only on those.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .. import obs
from ..core.corpus import CorpusIndex, IndexStats
from ..core.features import FeatureExtractor
from ..core.operator import DatasetIndex, IndexedFunction
from ..data.catalog import city_from_dict, city_to_dict
from ..mapreduce.engine import default_engine
from ..mapreduce.job import Engine, MapReduceJob
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.errors import PersistError
from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    INDEX_MANIFEST,
    PARTITION_DIR,
    extractor_from_dict,
    extractor_to_dict,
    manifest_digest,
    partition_filename,
    read_partition,
    write_partition,
)

_MANIFEST_KEYS = (
    "city",
    "extractor",
    "fill",
    "fingerprints",
    "scope",
    "datasets",
    "stats",
    "partitions",
)


class PartitionSaveJob(MapReduceJob):
    """Write one partition file per map task; reduce to the manifest list.

    Map input: ``((seq, dataset, s_res, t_res), functions)`` where ``seq`` is
    the partition's position in the index's canonical iteration order.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def map(self, key: Any, value: Any):
        seq, dataset, spatial, temporal = key
        functions: list[IndexedFunction] = value
        filename = partition_filename(seq, dataset, spatial, temporal)
        path = self.directory / PARTITION_DIR / filename
        meta = write_partition(path, functions)  # includes sha256 + nbytes
        record = {
            "seq": int(seq),
            "dataset": dataset,
            "spatial": spatial.value,
            "temporal": temporal.value,
            "file": f"{PARTITION_DIR}/{filename}",
            **meta,
        }
        yield "partitions", record

    def reduce(self, key: Any, values: list[Any]):
        yield key, sorted(values, key=lambda record: record["seq"])


class PartitionLoadJob(MapReduceJob):
    """Verify + decode one partition file per map task; reduce per data set.

    Map input: ``((seq, dataset), record)`` with ``record`` a manifest
    partition entry.  The reducer reassembles resolutions in ``seq`` order,
    so the loaded :class:`DatasetIndex` lists them exactly as the original
    build did.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def map(self, key: Any, value: Any):
        seq, dataset = key
        record = value
        path = self.directory / record["file"]
        if not path.is_file():
            raise PersistError(f"missing partition file {record['file']!r}")
        # One read per partition: hash the bytes in memory, then decode the
        # same buffer (re-reading multi-GB indexes would double the I/O).
        payload = path.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != record["sha256"]:
            raise PersistError(
                f"checksum mismatch for {record['file']!r}: manifest says "
                f"{record['sha256'][:12]}..., file is {digest[:12]}..."
            )
        try:
            spatial = SpatialResolution(record["spatial"])
            temporal = TemporalResolution(record["temporal"])
        except ValueError as exc:
            raise PersistError(
                f"{record['file']!r}: unknown resolution: {exc}"
            ) from exc
        functions = read_partition(path, record, spatial, temporal, data=payload)
        yield dataset, (seq, (spatial, temporal), functions)

    def reduce(self, key: Any, values: list[Any]):
        ds_index = DatasetIndex(dataset=key)
        for _seq, resolution, functions in sorted(values, key=lambda v: v[0]):
            ds_index.functions[resolution] = functions
        yield key, ds_index


def save_index(
    index: CorpusIndex, path: str | Path, engine: Engine | None = None
) -> Path:
    """Serialize ``index`` to directory ``path``; returns the manifest path.

    ``path`` is resolved to an absolute path before any job runs: partition
    files are written by engine tasks, and cluster workers are separate
    processes whose working directory is not the caller's.  (Cluster saves
    and loads additionally assume the workers share the caller's
    filesystem, as on a localhost cluster or NFS.)

    Overwriting an existing index is all-or-nothing up to the final rename
    pair: the new index is written into a ``.<name>.tmp`` sibling and only
    swapped in once its manifest is on disk, so a crash or full disk while
    *writing* leaves the previous index untouched.  The swap itself retires
    the old directory to ``.<name>.old`` before moving the new one in; a
    crash in that narrow window leaves the data in the retired sibling
    rather than at ``path``.  Both leftover siblings are cleaned up by the
    next successful save.
    """
    directory = Path(path).expanduser().resolve()
    staging = directory.parent / f".{directory.name}.tmp"
    retired = directory.parent / f".{directory.name}.old"
    if staging.exists():
        shutil.rmtree(staging)
    (staging / PARTITION_DIR).mkdir(parents=True)

    inputs: list[tuple[Any, Any]] = []
    seq = 0
    for name, ds_index in index.datasets.items():
        for (spatial, temporal), functions in ds_index.functions.items():
            inputs.append(((seq, name, spatial, temporal), functions))
            seq += 1

    run_engine = engine if engine is not None else default_engine()
    with obs.span("persist.save", index=directory.name, n_partitions=len(inputs)):
        outputs, _ = run_engine.run(PartitionSaveJob(staging), inputs)
        records = outputs[0][1] if outputs else []

        # Reuse evidence for `repro update`: each partition's IndexStats
        # contribution and content fingerprint ride in its record.
        for record in records:
            key = (
                record["dataset"],
                SpatialResolution(record["spatial"]),
                TemporalResolution(record["temporal"]),
            )
            record["stats"] = asdict(index.partition_stats[key])
            record["fingerprint"] = index.partition_fingerprints[key]

        manifest = build_manifest(
            city=index.city,
            extractor=index.extractor,
            fill=index.fill,
            datasets=list(index.datasets),
            stats=index.stats,
            records=records,
            scope=index.scope,
        )
        write_manifest(staging / INDEX_MANIFEST, manifest)

        replace_directory(staging, directory, retired)
    return directory / INDEX_MANIFEST


def build_manifest(
    city,
    extractor: FeatureExtractor | None,
    fill: str,
    datasets: list[str],
    stats: IndexStats,
    records: list[dict],
    scope: dict,
) -> dict:
    """Assemble and sign a manifest.

    The single source of truth for manifest layout: :func:`save_index` and
    the incremental applier (:func:`repro.incremental.update.apply_update`)
    both call this, which is what makes an incrementally updated manifest
    byte-compatible with a from-scratch save of the same content.

    ``scope`` records the resolution whitelists the index was built with
    (see :func:`repro.core.corpus.resolution_scope`).
    """
    from ..incremental.fingerprint import city_digest, config_digest

    extractor = extractor if extractor is not None else FeatureExtractor()
    payload = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "city": city_to_dict(city),
        "extractor": extractor_to_dict(extractor),
        "fill": fill,
        "fingerprints": {
            "config": config_digest(extractor, fill),
            "city": city_digest(city),
        },
        "scope": scope,
        "datasets": datasets,
        "stats": asdict(stats),
        "partitions": records,
    }
    manifest = dict(payload)
    manifest["manifest_sha256"] = manifest_digest(payload)
    return manifest


def write_manifest(path: Path, manifest: dict) -> None:
    """Write a manifest exactly as :func:`save_index` does (stable layout)."""
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2)


def replace_directory(staging: Path, directory: Path, retired: Path) -> None:
    """Atomically swap ``staging`` into place at ``directory``.

    The previous content (if any) is retired to ``retired`` before the new
    directory moves in; a crash in that narrow window leaves the data in the
    retired sibling rather than at ``directory``.  The retired sibling —
    including orphans of an interrupted earlier swap — is removed on the way
    out.  Shared by :func:`save_index` and
    :func:`repro.incremental.update.apply_update`.
    """
    if directory.exists():
        if retired.exists():
            shutil.rmtree(retired)
        directory.rename(retired)
        staging.rename(directory)
    else:
        staging.rename(directory)
    if retired.exists():
        shutil.rmtree(retired)


def load_index(path: str | Path, engine: Engine | None = None) -> CorpusIndex:
    """Rebuild a :class:`CorpusIndex` from a directory written by
    :func:`save_index`, skipping re-indexing entirely.

    The loaded index has no backing :class:`~repro.core.corpus.Corpus` (raw
    data is not part of the format); everything a query needs — functions,
    features, extractor configuration, city model — is restored from disk.
    ``path`` is resolved to an absolute path up front so engine tasks read
    the right files from any working directory (cluster workers included).
    """
    directory = Path(path).expanduser().resolve()
    manifest = read_manifest(directory)

    city = city_from_dict(manifest["city"])
    extractor = extractor_from_dict(manifest["extractor"])
    try:
        stats = IndexStats(**manifest["stats"])
    except TypeError as exc:
        raise PersistError(f"malformed stats record: {exc}") from exc

    inputs = [
        ((record["seq"], record["dataset"]), record)
        for record in manifest["partitions"]
    ]
    run_engine = engine if engine is not None else default_engine()
    with obs.span("persist.load", index=directory.name, n_partitions=len(inputs)):
        outputs, job_stats = run_engine.run(PartitionLoadJob(directory), inputs)
    loaded = dict(outputs)

    datasets: dict[str, DatasetIndex] = {}
    for name in manifest["datasets"]:
        # Data sets with no viable partition stay indexed-but-empty, exactly
        # as Corpus.build_index leaves them.
        datasets[name] = loaded.get(name) or DatasetIndex(dataset=name)

    # The reuse evidence survives the round trip, so a loaded index can be
    # re-saved (or incrementally updated) without losing it.
    partition_stats = {}
    partition_fingerprints = {}
    for record in manifest["partitions"]:
        key = (
            record["dataset"],
            SpatialResolution(record["spatial"]),
            TemporalResolution(record["temporal"]),
        )
        try:
            partition_stats[key] = IndexStats(**record["stats"])
            partition_fingerprints[key] = record["fingerprint"]
        except (KeyError, TypeError) as exc:
            raise PersistError(
                f"{record['file']!r}: malformed partition record: {exc!r}"
            ) from exc

    return CorpusIndex(
        city=city,
        corpus=None,
        datasets=datasets,
        stats=stats,
        job_stats=job_stats,
        extractor=extractor,
        fill=manifest["fill"],
        partition_stats=partition_stats,
        partition_fingerprints=partition_fingerprints,
        scope=manifest["scope"],
    )


def read_manifest(path: str | Path) -> dict:
    """Read and integrity-check an index manifest (format + version + digest)."""
    directory = Path(path)
    manifest_path = directory / INDEX_MANIFEST
    if not manifest_path.is_file():
        raise PersistError(
            f"{directory}: no {INDEX_MANIFEST} found (not an index directory?)"
        )
    try:
        text = manifest_path.read_text()
    except UnicodeDecodeError as exc:
        raise PersistError(
            f"{manifest_path}: manifest is not valid JSON "
            f"(truncated or corrupt): {exc}"
        ) from exc
    except OSError as exc:
        raise PersistError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        # The cause is chained (`from exc`) so callers see the parser's own
        # line/column diagnosis, not just that *something* was wrong.
        raise PersistError(
            f"{manifest_path}: manifest is not valid JSON "
            f"(truncated or corrupt): {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise PersistError(f"{manifest_path}: not a {FORMAT_NAME} manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"unsupported index format version {version!r} "
            f"(this build reads and writes version {FORMAT_VERSION})"
        )
    claimed = manifest.get("manifest_sha256")
    payload = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    if claimed != manifest_digest(payload):
        raise PersistError(
            f"{manifest_path}: manifest integrity check failed "
            "(edited or truncated after writing)"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise PersistError(f"{manifest_path}: manifest is missing {missing}")
    return manifest


@dataclass(frozen=True)
class DiskUsage:
    """On-disk byte accounting of one index directory (§5.4 reconciliation).

    ``function_bytes`` and ``feature_bytes`` count the raw array payloads and
    equal the in-memory :class:`IndexStats` counters exactly (arrays are
    stored uncompressed).  ``threshold_bytes`` covers the per-interval salient
    extremum values, ``structure_bytes`` the step labels and region adjacency,
    and ``total_bytes`` the actual file sizes including container overhead.
    """

    function_bytes: int
    feature_bytes: int
    threshold_bytes: int
    structure_bytes: int
    manifest_bytes: int
    total_bytes: int


def disk_usage(path: str | Path) -> DiskUsage:
    """Byte breakdown of an index directory written by :func:`save_index`.

    The per-category counts come from the digest-protected manifest (recorded
    at write time by :func:`~repro.persist.format.write_partition`), so this
    only stats the partition files instead of decoding every array.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    function_bytes = feature_bytes = threshold_bytes = structure_bytes = 0
    total_bytes = manifest_bytes = (directory / INDEX_MANIFEST).stat().st_size
    for record in manifest["partitions"]:
        file_path = directory / record["file"]
        if not file_path.is_file():
            raise PersistError(f"missing partition file {record['file']!r}")
        total_bytes += file_path.stat().st_size
        try:
            counters = record["bytes"]
            function_bytes += counters["function"]
            feature_bytes += counters["feature"]
            threshold_bytes += counters["threshold"]
            structure_bytes += counters["structure"]
        except KeyError as exc:
            raise PersistError(
                f"{record.get('file')!r}: partition record has no byte "
                f"accounting ({exc})"
            ) from exc
    return DiskUsage(
        function_bytes=function_bytes,
        feature_bytes=feature_bytes,
        threshold_bytes=threshold_bytes,
        structure_bytes=structure_bytes,
        manifest_bytes=manifest_bytes,
        total_bytes=total_bytes,
    )
