"""Index persistence: serialize a :class:`~repro.core.corpus.CorpusIndex`
to a versioned on-disk format and load it back without re-indexing.

See :mod:`repro.persist.format` for the format specification and
:mod:`repro.persist.index_io` for the engine-backed save/load pipeline.
The public entry points are also exposed as ``CorpusIndex.save(path)`` /
``CorpusIndex.load(path)`` and the ``repro index`` / ``repro query --index``
CLI verbs.
"""

from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    INDEX_MANIFEST,
    PARTITION_DIR,
    deterministic_savez,
    partition_filename,
    read_partition,
    write_partition,
)
from .index_io import (
    DiskUsage,
    PartitionLoadJob,
    PartitionSaveJob,
    disk_usage,
    load_index,
    read_manifest,
    replace_directory,
    save_index,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "INDEX_MANIFEST",
    "PARTITION_DIR",
    "deterministic_savez",
    "partition_filename",
    "read_partition",
    "write_partition",
    "DiskUsage",
    "PartitionLoadJob",
    "PartitionSaveJob",
    "disk_usage",
    "load_index",
    "read_manifest",
    "replace_directory",
    "save_index",
]
