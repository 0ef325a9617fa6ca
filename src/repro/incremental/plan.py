"""The update planner: diff a live corpus against a saved index.

:func:`plan_update` enumerates the partitions a from-scratch
``Corpus.build_index`` would produce (via ``Corpus.partition_inputs``, so
planner and builder can never disagree), fingerprints them
(:mod:`.fingerprint`), and compares against the fingerprints recorded in
the saved index's manifest.  The result is an :class:`UpdatePlan` — one
:class:`PlanEntry` per partition, each with one of four actions:

* ``keep`` — fingerprint matches: the on-disk NPZ already holds exactly
  what a rebuild would write (partition files are byte-deterministic), so
  the applier relinks it untouched;
* ``rebuild`` — the partition exists but its inputs changed (data set
  content, specs, city model, extractor config or fill — the entry's
  ``reason`` says which);
* ``add`` — the partition is new (new data set, or a resolution newly
  viable);
* ``drop`` — the saved partition has no counterpart in the live corpus
  (data set removed, or resolution no longer requested).

Reuse must be *proven*, never assumed: only a matching fingerprint keeps
a partition.  The plan renders human-readably via
:meth:`UpdatePlan.describe` (the ``repro update --dry-run`` output) and is
executed by :func:`repro.incremental.update.apply_update`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import obs
from ..core.corpus import Corpus, resolution_scope
from ..data.aggregation import FunctionSpec
from ..persist.index_io import read_manifest
from ..spatial.resolution import SpatialResolution
from ..temporal.resolution import TemporalResolution
from .fingerprint import city_digest, config_digest, fingerprints_for_inputs

#: Plan actions in rendering order.
ACTIONS = ("keep", "rebuild", "add", "drop")


@dataclass
class PlanEntry:
    """One partition's fate under the plan."""

    action: str
    dataset: str
    spatial: SpatialResolution
    temporal: TemporalResolution
    reason: str
    #: Position in the new canonical partition order (None for drops).
    new_seq: int | None = None
    #: The saved manifest's partition record (None for adds).
    old_record: dict | None = None
    #: Fingerprint the partition will carry after the update (None for drops).
    fingerprint: str | None = None
    #: The partition's ``IndexPartitionJob`` map input (rebuild/add only);
    #: carries the live Dataset by reference, so excluded from repr.
    input: tuple[Any, Any] | None = field(default=None, repr=False)

    @property
    def resolution_label(self) -> str:
        """``spatial/temporal`` rendering used by describe()."""
        return f"{self.spatial.value}/{self.temporal.value}"


@dataclass
class UpdatePlan:
    """Every partition's fate plus the context needed to apply or render it."""

    index_path: Path
    entries: list[PlanEntry]
    #: Data set name order of the saved manifest and of the live corpus.
    saved_datasets: list[str]
    new_datasets: list[str]
    #: ``stats.raw_bytes`` of the saved manifest and of the live corpus.
    #: A data set with *zero* viable partitions leaves no fingerprint to
    #: diff, but its size still feeds the manifest's raw-byte counter — so
    #: a no-op claim must check this too.
    saved_raw_bytes: int = 0
    new_raw_bytes: int = 0
    #: Recorded resolution scope of the saved manifest vs. the scope this
    #: plan was computed for (see ``repro.core.corpus.resolution_scope``).
    saved_scope: dict | None = None
    new_scope: dict | None = None
    #: Whether the extractor/fill config or city model digests differ from
    #: the saved manifest's.  With partitions present this shows up as
    #: rebuilds anyway, but an index whose data sets have *zero* viable
    #: partitions would otherwise no-op past a config change, leaving a
    #: stale manifest.
    config_changed: bool = False
    city_changed: bool = False

    def by_action(self, action: str) -> list[PlanEntry]:
        """All entries with one action, in plan order."""
        return [e for e in self.entries if e.action == action]

    @property
    def counts(self) -> dict[str, int]:
        """``{action: entry count}`` for all four actions."""
        return {a: len(self.by_action(a)) for a in ACTIONS}

    @property
    def n_changed(self) -> int:
        """Partitions the applier must write or remove."""
        c = self.counts
        return c["rebuild"] + c["add"] + c["drop"]

    @property
    def is_noop(self) -> bool:
        """True when applying would rewrite nothing at all.

        Every partition is a ``keep`` in its original slot (same seq, same
        file name), the manifest's data set list is unchanged, and the
        raw-byte accounting still matches — so the manifest on disk is
        already exactly what the update would write.
        """
        if self.n_changed or self.saved_datasets != self.new_datasets:
            return False
        if self.saved_raw_bytes != self.new_raw_bytes:
            return False
        if self.saved_scope != self.new_scope:
            return False
        if self.config_changed or self.city_changed:
            return False
        for entry in self.entries:
            record = entry.old_record or {}
            if record.get("seq") != entry.new_seq:
                return False
        return True

    def describe(self) -> str:
        """Human-readable rendering (the ``repro update --dry-run`` output)."""
        lines = [f"update plan for {self.index_path}"]
        if self.is_noop:
            lines.append("  index is up to date; nothing to do")
        width = max((len(e.dataset) for e in self.entries), default=0)
        res_width = max((len(e.resolution_label) for e in self.entries), default=0)
        for entry in self.entries:
            lines.append(
                f"  {entry.action:<8s} {entry.dataset:<{width}s} "
                f"{entry.resolution_label:<{res_width}s}  ({entry.reason})"
            )
        c = self.counts
        lines.append(
            f"{len(self.entries)} partitions: {c['keep']} keep, "
            f"{c['rebuild']} rebuild, {c['add']} add, {c['drop']} drop"
        )
        return "\n".join(lines)


def plan_update(
    path: str | Path,
    corpus: Corpus,
    spatial: tuple[SpatialResolution, ...] | None = None,
    temporal: tuple[TemporalResolution, ...] | None = None,
    specs: dict[str, list[FunctionSpec]] | None = None,
) -> UpdatePlan:
    """Diff the saved index at ``path`` against ``corpus``.

    ``spatial``/``temporal``/``specs`` mirror ``Corpus.build_index``: the
    plan targets exactly the index that ``build_index`` with the same
    arguments would produce.  Reads only the manifest — no partition file
    is opened.  Raises :class:`~repro.utils.errors.PersistError` for a
    missing or corrupt index.
    """
    directory = Path(path).expanduser().resolve()
    with obs.span("incremental.plan", index=directory.name) as plan_span:
        manifest = read_manifest(directory)

        saved_fingerprints = manifest["fingerprints"]
        config_changed = saved_fingerprints.get("config") != config_digest(
            corpus.extractor, corpus.fill
        )
        city_changed = saved_fingerprints.get("city") != city_digest(corpus.city)

        inputs = corpus.partition_inputs(
            spatial=spatial, temporal=temporal, specs=specs
        )
        fingerprints = fingerprints_for_inputs(
            inputs, corpus.city, corpus.extractor, corpus.fill
        )

        saved: dict[tuple[str, SpatialResolution, TemporalResolution], dict] = {}
        for record in manifest["partitions"]:
            key = (
                record["dataset"],
                SpatialResolution(record["spatial"]),
                TemporalResolution(record["temporal"]),
            )
            saved[key] = record

        entries: list[PlanEntry] = []
        matched: set[tuple[str, SpatialResolution, TemporalResolution]] = set()
        for new_seq, ((name, s_res, t_res), value) in enumerate(inputs):
            key = (name, s_res, t_res)
            fingerprint = fingerprints[key]
            record = saved.get(key)
            if record is None:
                action, reason = "add", "not in index"
            else:
                matched.add(key)
                if record.get("fingerprint") == fingerprint:
                    action, reason = "keep", "fingerprint match"
                elif config_changed:
                    action, reason = "rebuild", "extractor/fill configuration changed"
                elif city_changed:
                    action, reason = "rebuild", "city model changed"
                else:
                    # The stored fingerprint is a composite; with config and
                    # city ruled out, the change is in the data set or its
                    # function specs — not distinguishable after the fact.
                    action, reason = "rebuild", "data set content or specs changed"
            entries.append(
                PlanEntry(
                    action=action,
                    dataset=name,
                    spatial=s_res,
                    temporal=t_res,
                    reason=reason,
                    new_seq=new_seq,
                    old_record=record,
                    fingerprint=fingerprint,
                    input=((name, s_res, t_res), (new_seq, *value[1:])),
                )
            )
        for key, record in saved.items():
            if key in matched:
                continue
            name, s_res, t_res = key
            # Distinguish "the data set is gone" from "the data set is still
            # here but this resolution fell outside the maintained whitelists"
            # — the latter means a narrowed `--temporal`/`--spatial` is about
            # to delete partitions, which the dry run must say plainly.
            if name in corpus.datasets:
                reason = "resolution no longer maintained"
            else:
                reason = "not in catalog"
            entries.append(
                PlanEntry(
                    action="drop",
                    dataset=name,
                    spatial=s_res,
                    temporal=t_res,
                    reason=reason,
                    old_record=record,
                )
            )

        plan_span.set(n_entries=len(entries))

    return UpdatePlan(
        index_path=directory,
        entries=entries,
        saved_datasets=list(manifest["datasets"]),
        new_datasets=list(corpus.datasets),
        saved_raw_bytes=int(manifest["stats"].get("raw_bytes", 0)),
        new_raw_bytes=sum(ds.nbytes() for ds in corpus.datasets.values()),
        saved_scope=manifest["scope"],
        new_scope=resolution_scope(spatial, temporal),
        config_changed=config_changed,
        city_changed=city_changed,
    )
