"""The update applier: execute an :class:`~repro.incremental.plan.UpdatePlan`.

Only the changed partitions' :class:`~repro.core.corpus.IndexPartitionJob`
map tasks are routed through the ``Engine.run(job, inputs)`` contract — the
same job, the same payload shape, the same engines as a from-scratch build,
so thread, process and cluster executors all work unchanged.  Untouched
partitions are spliced in by hard link (falling back to copy on filesystems
without link support): their bytes are never read, never rewritten, and a
kept file keeps its inode and mtime — which is how tests *prove* reuse.

Atomicity mirrors :func:`repro.persist.index_io.save_index`: everything is
assembled in a ``.<name>.update-tmp`` sibling and swapped into place with
:func:`~repro.persist.index_io.replace_directory` only after the new
manifest is on disk.  A crash at any point before the swap leaves the old
index fully loadable; a crash during the swap leaves it in the retired
``.<name>.old`` sibling.

The payoff invariant (asserted by ``tests/incremental/test_property.py``):
an updated index is **bit-identical** to ``corpus.build_index(...).save()``
— partition bytes exactly, the manifest up to the two wall-clock timing
counters — because partition files are byte-deterministic and the manifest
is built by the same :func:`~repro.persist.index_io.build_manifest` both
ways.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .. import obs
from ..core.corpus import Corpus, IndexPartitionJob, IndexStats, resolution_scope
from ..data.aggregation import FunctionSpec
from ..mapreduce.engine import default_engine
from ..mapreduce.job import Engine
from ..persist.format import (
    INDEX_MANIFEST,
    PARTITION_DIR,
    partition_filename,
    write_partition,
)
from ..persist.index_io import build_manifest, replace_directory, write_manifest
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from ..utils.errors import PersistError
from .plan import UpdatePlan, plan_update


@dataclass
class UpdateReport:
    """What an update did (or, for a dry run, would do).

    ``bytes_reused`` counts partition payloads spliced in without being
    read or rewritten; ``bytes_rewritten`` counts freshly written partition
    payloads plus the manifest.  ``applied`` is False for dry runs; a no-op
    apply sets ``applied`` with zero bytes rewritten (nothing on disk is
    touched, not even the manifest).
    """

    plan: UpdatePlan = field(repr=False)
    n_reused: int = 0
    n_rebuilt: int = 0
    n_added: int = 0
    n_dropped: int = 0
    bytes_reused: int = 0
    bytes_rewritten: int = 0
    wall_seconds: float = 0.0
    applied: bool = False

    @classmethod
    def from_plan(cls, plan: UpdatePlan) -> "UpdateReport":
        """A fresh (not yet applied) report carrying the plan's counts."""
        counts = plan.counts
        return cls(
            plan=plan,
            n_reused=counts["keep"],
            n_rebuilt=counts["rebuild"],
            n_added=counts["add"],
            n_dropped=counts["drop"],
        )

    @property
    def noop(self) -> bool:
        """True when the saved index already matched the live corpus."""
        return self.plan.is_noop

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        if not self.applied:
            return self.plan.describe()
        if self.noop:
            return (
                f"index at {self.plan.index_path} is up to date: "
                f"{self.n_reused} partition(s) reused "
                f"({self.bytes_reused:,} bytes untouched), nothing rewritten"
            )
        return (
            f"updated {self.plan.index_path} in {self.wall_seconds:.2f}s: "
            f"rebuilt {self.n_rebuilt}, added {self.n_added}, "
            f"dropped {self.n_dropped}, reused {self.n_reused} partition(s) "
            f"({self.bytes_reused:,} bytes untouched, "
            f"{self.bytes_rewritten:,} bytes written)"
        )


def _link_or_copy(source: Path, target: Path) -> None:
    """Splice one kept partition into the staging directory.

    Hard link when the filesystem allows it (same directory tree, so same
    device): zero I/O, and the file provably keeps its identity (inode).
    """
    try:
        os.link(source, target)
    except OSError:  # pragma: no cover - filesystem without hard links
        shutil.copy2(source, target)


def apply_update(
    path: str | Path,
    corpus: Corpus,
    spatial: tuple[SpatialResolution, ...] | None = None,
    temporal: tuple[TemporalResolution, ...] | None = None,
    specs: dict[str, list[FunctionSpec]] | None = None,
    engine: Engine | None = None,
    plan: UpdatePlan | None = None,
) -> UpdateReport:
    """Reconcile the saved index at ``path`` with ``corpus`` in place.

    Pass a precomputed ``plan`` (from :func:`plan_update` with the same
    arguments) to skip re-planning; otherwise one is computed here.  A
    no-op plan returns without touching the directory at all.  Engine
    resolution follows ``Corpus.build_index``: an explicit ``engine`` wins,
    else ``$REPRO_EXECUTOR`` / ``$REPRO_WORKERS`` decide.
    """
    start = time.perf_counter()
    directory = Path(path).expanduser().resolve()
    if plan is None:
        plan = plan_update(
            directory, corpus, spatial=spatial, temporal=temporal, specs=specs
        )
    report = UpdateReport.from_plan(plan)

    if plan.is_noop:
        report.bytes_reused = sum(
            int((e.old_record or {}).get("nbytes", 0)) for e in plan.by_action("keep")
        )
        report.applied = True
        report.wall_seconds = time.perf_counter() - start
        return report

    staging = directory.parent / f".{directory.name}.update-tmp"
    retired = directory.parent / f".{directory.name}.update-old"
    if staging.exists():
        shutil.rmtree(staging)
    (staging / PARTITION_DIR).mkdir(parents=True)

    # Route only the changed partitions through the engine — the identical
    # IndexPartitionJob (and payload shape) a from-scratch build uses.
    changed = plan.by_action("rebuild") + plan.by_action("add")
    with obs.span(
        "incremental.apply", index=directory.name, n_changed=len(changed)
    ) as apply_span:
        built_functions: dict[Any, list] = {}
        built_stats: dict[Any, IndexStats] = {}
        if changed:
            if engine is None:
                engine = default_engine(map_chunk_size="auto")
            job = IndexPartitionJob(corpus.extractor, corpus.fill)
            outputs, _ = engine.run(job, [e.input for e in changed])
            for name, (ds_index, stats_by_resolution) in outputs:
                for resolution, functions in ds_index.functions.items():
                    built_functions[(name, *resolution)] = functions
                for resolution, stats in stats_by_resolution.items():
                    built_stats[(name, *resolution)] = stats

        # Assemble the new partition set in canonical seq order: keeps are
        # spliced by link, changed partitions are written fresh.
        records: list[dict] = []
        total_stats = IndexStats()
        for dataset in corpus.datasets.values():
            total_stats.raw_bytes += dataset.nbytes()
        for entry in sorted(
            (e for e in plan.entries if e.action != "drop"),
            key=lambda e: e.new_seq,
        ):
            key = (entry.dataset, entry.spatial, entry.temporal)
            filename = partition_filename(
                entry.new_seq, entry.dataset, entry.spatial, entry.temporal
            )
            target = staging / PARTITION_DIR / filename
            if entry.action == "keep":
                old = entry.old_record
                source = directory / old["file"]
                if not source.is_file():
                    raise PersistError(
                        f"cannot reuse partition {old['file']!r}: file is missing"
                    )
                _link_or_copy(source, target)
                record = dict(old)
                record["seq"] = entry.new_seq
                record["file"] = f"{PARTITION_DIR}/{filename}"
                record["fingerprint"] = entry.fingerprint
                report.bytes_reused += int(old.get("nbytes", 0))
                stats = IndexStats(**old["stats"])
            else:  # rebuild / add
                functions = built_functions[key]
                meta = write_partition(target, functions)
                record = {
                    "seq": entry.new_seq,
                    "dataset": entry.dataset,
                    "spatial": entry.spatial.value,
                    "temporal": entry.temporal.value,
                    "file": f"{PARTITION_DIR}/{filename}",
                    **meta,
                }
                stats = built_stats[key]
                record["stats"] = asdict(stats)
                record["fingerprint"] = entry.fingerprint
                report.bytes_rewritten += int(meta["nbytes"])
            records.append(record)
            total_stats.merge(stats)

        manifest = build_manifest(
            city=corpus.city,
            extractor=corpus.extractor,
            fill=corpus.fill,
            datasets=list(corpus.datasets),
            stats=total_stats,
            records=records,
            scope=resolution_scope(spatial, temporal),
        )
        manifest_path = staging / INDEX_MANIFEST
        write_manifest(manifest_path, manifest)
        report.bytes_rewritten += manifest_path.stat().st_size

        replace_directory(staging, directory, retired)
        report.applied = True
        report.wall_seconds = time.perf_counter() - start
        apply_span.set(
            bytes_reused=report.bytes_reused,
            bytes_rewritten=report.bytes_rewritten,
        )
    return report


def update_index(
    path: str | Path,
    corpus: Corpus,
    spatial: tuple[SpatialResolution, ...] | None = None,
    temporal: tuple[TemporalResolution, ...] | None = None,
    specs: dict[str, list[FunctionSpec]] | None = None,
    dry_run: bool = False,
    engine: Engine | None = None,
) -> UpdateReport:
    """Plan — and unless ``dry_run`` — apply an incremental index update.

    The convenience entry point behind ``CorpusIndex.update`` and the
    ``repro update`` CLI verb.
    """
    plan = plan_update(path, corpus, spatial=spatial, temporal=temporal, specs=specs)
    if dry_run:
        return UpdateReport.from_plan(plan)
    return apply_update(
        path,
        corpus,
        spatial=spatial,
        temporal=temporal,
        specs=specs,
        engine=engine,
        plan=plan,
    )
