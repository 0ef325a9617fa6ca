"""Applier edge cases: no-op updates, drops, crashes."""

import json

import pytest
from _helpers import (
    RES_KWARGS,
    assert_index_dirs_bit_identical,
    assert_query_results_equal,
    file_identities,
    normalized_manifest,
)

from repro.core.corpus import Corpus, CorpusIndex
from repro.incremental import apply_update, plan_update, update_index
from repro.persist import INDEX_MANIFEST
from repro.utils.errors import PersistError


def _all_files(index_dir):
    manifest = json.loads((index_dir / INDEX_MANIFEST).read_text())
    return [INDEX_MANIFEST] + [r["file"] for r in manifest["partitions"]]


class TestNoopUpdate:
    def test_empty_diff_rewrites_nothing(self, index_copy, base_corpus):
        """An up-to-date index is left byte-for-byte and inode-for-inode
        alone: not even the manifest is rewritten."""
        before = file_identities(index_copy, _all_files(index_copy))
        report = apply_update(index_copy, base_corpus, **RES_KWARGS)
        assert report.noop and report.applied
        assert report.bytes_rewritten == 0
        assert report.n_reused == 4
        assert report.bytes_reused > 0
        assert file_identities(index_copy, _all_files(index_copy)) == before
        # No staging/retired siblings linger either.
        assert [p.name for p in index_copy.parent.iterdir()] == [index_copy.name]

    def test_noop_report_describes_itself(self, index_copy, base_corpus):
        report = apply_update(index_copy, base_corpus, **RES_KWARGS)
        assert "up to date" in report.describe()


class TestDropDataset:
    def test_drop_removes_partitions_and_stats_contribution(
        self, index_copy, base_collection
    ):
        corpus = Corpus([base_collection.dataset("taxi")], base_collection.city)
        report = apply_update(index_copy, corpus, **RES_KWARGS)
        assert report.n_dropped == 2 and report.n_reused == 2

        manifest = json.loads((index_copy / INDEX_MANIFEST).read_text())
        assert manifest["datasets"] == ["taxi"]
        assert all(r["dataset"] == "taxi" for r in manifest["partitions"])
        # No orphaned NPZ files survive the drop.
        on_disk = sorted(p.name for p in (index_copy / "partitions").iterdir())
        listed = sorted(r["file"].split("/")[-1] for r in manifest["partitions"])
        assert on_disk == listed

        # The dropped data set's IndexStats contribution is gone too: the
        # updated counters equal a from-scratch build of the reduced corpus.
        rebuilt = corpus.build_index(**RES_KWARGS)
        stats = manifest["stats"]
        assert stats["n_scalar_functions"] == rebuilt.stats.n_scalar_functions
        assert stats["n_feature_sets"] == rebuilt.stats.n_feature_sets
        assert stats["function_bytes"] == rebuilt.stats.function_bytes
        assert stats["feature_bytes"] == rebuilt.stats.feature_bytes
        assert stats["raw_bytes"] == rebuilt.stats.raw_bytes

        loaded = CorpusIndex.load(index_copy)
        assert list(loaded.datasets) == ["taxi"]


class TestCrashSafety:
    def test_crash_before_swap_leaves_old_index_loadable(
        self, index_copy, base_collection, extended_taxi, monkeypatch
    ):
        """Everything up to the final directory swap is staged aside: a
        crash between partition writes and the manifest swap must leave the
        previous index fully intact and loadable."""
        baseline = CorpusIndex.load(index_copy).query(n_permutations=15, seed=0)
        before = file_identities(index_copy, _all_files(index_copy))

        import repro.incremental.update as update_module

        def explode(*_args, **_kwargs):
            raise RuntimeError("injected crash before the atomic swap")

        monkeypatch.setattr(update_module, "replace_directory", explode)
        corpus = Corpus(
            [extended_taxi, base_collection.dataset("weather")],
            base_collection.city,
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            apply_update(index_copy, corpus, **RES_KWARGS)

        # Old index: untouched, loadable, answering exactly as before.
        assert file_identities(index_copy, _all_files(index_copy)) == before
        after = CorpusIndex.load(index_copy).query(n_permutations=15, seed=0)
        assert_query_results_equal(baseline, after)

        # A subsequent (uninjected) update recovers, staging leftovers and
        # all, and lands on the from-scratch result.
        monkeypatch.undo()
        report = apply_update(index_copy, corpus, **RES_KWARGS)
        assert report.applied and report.n_rebuilt == 2
        scratch = index_copy.parent / "scratch"
        corpus.build_index(**RES_KWARGS).save(scratch)
        assert_index_dirs_bit_identical(index_copy, scratch)

    def test_missing_kept_partition_file_fails_cleanly(
        self, index_copy, base_corpus, base_collection, citibike
    ):
        manifest = json.loads((index_copy / INDEX_MANIFEST).read_text())
        (index_copy / manifest["partitions"][0]["file"]).unlink()
        corpus = Corpus(base_collection.datasets + [citibike], base_collection.city)
        with pytest.raises(PersistError, match="cannot reuse partition"):
            apply_update(index_copy, corpus, **RES_KWARGS)


class TestDryRunAndConvenience:
    def test_dry_run_writes_nothing(self, index_copy, base_collection, extended_taxi):
        before = file_identities(index_copy, _all_files(index_copy))
        corpus = Corpus(
            [extended_taxi, base_collection.dataset("weather")],
            base_collection.city,
        )
        report = CorpusIndex.update(index_copy, corpus, **RES_KWARGS, dry_run=True)
        assert not report.applied
        assert report.n_rebuilt == 2 and report.n_reused == 2
        assert file_identities(index_copy, _all_files(index_copy)) == before
        assert "rebuild" in report.describe()

    def test_corpus_index_update_applies(self, index_copy, base_collection,
                                         extended_taxi):
        corpus = Corpus(
            [extended_taxi, base_collection.dataset("weather")],
            base_collection.city,
        )
        report = CorpusIndex.update(index_copy, corpus, **RES_KWARGS)
        assert report.applied and report.n_rebuilt == 2
        scratch = index_copy.parent / "scratch"
        corpus.build_index(**RES_KWARGS).save(scratch)
        assert_index_dirs_bit_identical(index_copy, scratch)

    def test_update_index_equals_apply_update(self, index_copy, base_corpus):
        report = update_index(index_copy, base_corpus, **RES_KWARGS)
        assert report.noop and report.applied

    def test_zero_partition_dataset_changes_manifest_only(
        self, index_copy, base_collection
    ):
        """A data set with no viable partition under the whitelists still
        belongs to the manifest's data set list (exactly as build_index
        records it), so adding one is a manifest-only update."""
        from repro.synth import nyc_urban_collection

        # gas_prices is weekly-native: zero partitions under day/hour.
        extra = nyc_urban_collection(
            seed=5, n_days=10, scale=0.15, subset=("gas_prices",)
        ).dataset("gas_prices")
        corpus = Corpus(base_collection.datasets + [extra], base_collection.city)
        plan = plan_update(index_copy, corpus, **RES_KWARGS)
        assert plan.counts == {"keep": 4, "rebuild": 0, "add": 0, "drop": 0}
        assert not plan.is_noop  # the data set list changed
        report = apply_update(index_copy, corpus, **RES_KWARGS, plan=plan)
        assert report.applied
        manifest = json.loads((index_copy / INDEX_MANIFEST).read_text())
        assert manifest["datasets"] == ["taxi", "weather", "gas_prices"]
        scratch = index_copy.parent / "scratch"
        corpus.build_index(**RES_KWARGS).save(scratch)
        assert_index_dirs_bit_identical(index_copy, scratch)

    def test_zero_partition_dataset_growth_is_not_a_noop(
        self, base_collection, tmp_path
    ):
        """A data set with no viable partitions leaves no fingerprints to
        diff — but its size feeds the manifest's raw_bytes counter, so its
        growth must not be reported as 'up to date' (stale manifest)."""
        from repro.synth import nyc_urban_collection

        gas = nyc_urban_collection(
            seed=5, n_days=10, scale=0.15, subset=("gas_prices",)
        ).dataset("gas_prices")
        gas_grown = nyc_urban_collection(
            seed=5, n_days=24, scale=0.15, subset=("gas_prices",)
        ).dataset("gas_prices")
        corpus = Corpus(base_collection.datasets + [gas], base_collection.city)
        index_dir = tmp_path / "idx"
        corpus.build_index(**RES_KWARGS).save(index_dir)

        corpus2 = Corpus(base_collection.datasets + [gas_grown], base_collection.city)
        plan = plan_update(index_dir, corpus2, **RES_KWARGS)
        assert plan.counts == {"keep": 4, "rebuild": 0, "add": 0, "drop": 0}
        assert not plan.is_noop  # raw_bytes accounting changed
        report = apply_update(index_dir, corpus2, **RES_KWARGS, plan=plan)
        assert report.applied and report.bytes_rewritten > 0
        scratch = tmp_path / "scratch"
        corpus2.build_index(**RES_KWARGS).save(scratch)
        assert_index_dirs_bit_identical(index_dir, scratch)

    def test_config_change_with_zero_partitions_is_not_a_noop(
        self, base_collection, tmp_path
    ):
        """With no partitions there are no fingerprints to flip, but the
        manifest still records fill/extractor/city — a config change must
        rewrite it, not report 'up to date' and leave it stale."""
        from repro.synth import nyc_urban_collection

        gas = nyc_urban_collection(
            seed=5, n_days=10, scale=0.15, subset=("gas_prices",)
        ).dataset("gas_prices")  # weekly: zero partitions under day/hour
        corpus = Corpus([gas], base_collection.city)
        index_dir = tmp_path / "idx"
        corpus.build_index(**RES_KWARGS).save(index_dir)

        changed = Corpus([gas], base_collection.city, fill="zero")
        plan = plan_update(index_dir, changed, **RES_KWARGS)
        assert not plan.entries  # nothing to diff at the partition level
        assert not plan.is_noop  # ...but the recorded config changed
        apply_update(index_dir, changed, **RES_KWARGS, plan=plan)
        scratch = tmp_path / "scratch"
        changed.build_index(**RES_KWARGS).save(scratch)
        assert_index_dirs_bit_identical(index_dir, scratch)
        assert CorpusIndex.load(index_dir).fill == "zero"

    def test_scope_only_change_is_not_a_noop(self, base_collection, tmp_path):
        """Widening the whitelists without changing the partition set still
        rewrites the manifest: the recorded scope must track what was
        *asked for*, or later updates would maintain the wrong scope."""
        weather = base_collection.dataset("weather")  # city-viable only
        corpus = Corpus([weather], base_collection.city)
        index_dir = tmp_path / "idx"
        corpus.build_index(**RES_KWARGS).save(index_dir)

        temporal = RES_KWARGS["temporal"]
        plan = plan_update(index_dir, corpus, spatial=None, temporal=temporal)
        assert plan.counts == {"keep": 2, "rebuild": 0, "add": 0, "drop": 0}
        assert not plan.is_noop  # scope spatial=(city,) -> "all viable"
        apply_update(index_dir, corpus, spatial=None, temporal=temporal, plan=plan)
        scratch = tmp_path / "scratch"
        corpus.build_index(spatial=None, temporal=temporal).save(scratch)
        assert_index_dirs_bit_identical(index_dir, scratch)

    def test_normalized_manifest_helper_sees_real_differences(
        self, index_copy, base_index_dir
    ):
        # Guard the test helper itself: identical directories compare equal...
        assert normalized_manifest(index_copy) == normalized_manifest(base_index_dir)
        # ...and a genuine content difference is not normalized away.
        manifest = json.loads((index_copy / INDEX_MANIFEST).read_text())
        manifest["stats"]["n_scalar_functions"] += 1
        (index_copy / INDEX_MANIFEST).write_text(json.dumps(manifest))
        assert normalized_manifest(index_copy) != normalized_manifest(base_index_dir)
