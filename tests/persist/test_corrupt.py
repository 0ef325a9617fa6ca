"""Corrupt and mismatched index files must fail with clear library errors.

Every failure mode — missing manifest, truncated JSON, foreign or
version-mismatched formats, tampered payloads, checksum mismatches, missing
partition files — raises :class:`repro.utils.errors.PersistError` with a
descriptive message, never a raw ``json``/``numpy``/``zipfile`` traceback.
"""

import json
import shutil

import pytest

from repro.core.corpus import CorpusIndex
from repro.persist import INDEX_MANIFEST, disk_usage
from repro.persist.format import manifest_digest
from repro.utils.errors import PersistError, ReproError


@pytest.fixture()
def broken_dir(index_dir, tmp_path):
    """A private, mutable copy of the pristine saved index."""
    target = tmp_path / "copy"
    shutil.copytree(index_dir, target)
    return target


def _rewrite_manifest(directory, mutate):
    """Apply ``mutate`` to the manifest payload and re-sign the digest.

    Used to corrupt *verified* content (partition records, stats) without
    tripping the outer manifest-integrity check first.
    """
    path = directory / INDEX_MANIFEST
    manifest = json.loads(path.read_text())
    manifest.pop("manifest_sha256")
    mutate(manifest)
    manifest["manifest_sha256"] = manifest_digest(manifest)
    path.write_text(json.dumps(manifest))


class TestManifestFailures:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistError, match="no index.json"):
            CorpusIndex.load(tmp_path / "nowhere")

    def test_missing_manifest(self, broken_dir):
        (broken_dir / INDEX_MANIFEST).unlink()
        with pytest.raises(PersistError, match="no index.json"):
            CorpusIndex.load(broken_dir)

    def test_truncated_manifest(self, broken_dir):
        path = broken_dir / INDEX_MANIFEST
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistError, match="truncated or corrupt") as excinfo:
            CorpusIndex.load(broken_dir)
        # The error must name the offending file and chain the parser's own
        # diagnosis (line/column), not swallow it.
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

    def test_non_json_manifest(self, broken_dir):
        (broken_dir / INDEX_MANIFEST).write_text("definitely { not json")
        with pytest.raises(PersistError, match="truncated or corrupt"):
            CorpusIndex.load(broken_dir)

    def test_foreign_format_rejected(self, broken_dir):
        path = broken_dir / INDEX_MANIFEST
        manifest = json.loads(path.read_text())
        manifest["format"] = "somebody-elses-index"
        path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="not a repro-corpus-index"):
            CorpusIndex.load(broken_dir)

    @pytest.mark.parametrize("version", [999, 1, None])
    def test_wrong_format_version_rejected(self, broken_dir, version):
        """Only the version this build writes is read: a future one, the
        retired version 1 and a missing field are all typed errors."""
        path = broken_dir / INDEX_MANIFEST
        manifest = json.loads(path.read_text())
        manifest["format_version"] = version
        path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="unsupported index format version"):
            CorpusIndex.load(broken_dir)

    def test_undecodable_manifest_chains_cause(self, broken_dir):
        # Binary garbage where the manifest should be: the decode error is
        # chained, the message still says truncated-or-corrupt.
        path = broken_dir / INDEX_MANIFEST
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(PersistError, match="truncated or corrupt") as excinfo:
            CorpusIndex.load(broken_dir)
        assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)

    def test_tampered_payload_fails_integrity_check(self, broken_dir):
        path = broken_dir / INDEX_MANIFEST
        manifest = json.loads(path.read_text())
        manifest["stats"]["function_bytes"] = 0  # digest no longer matches
        path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="integrity check failed"):
            CorpusIndex.load(broken_dir)

    def test_malformed_stats_record(self, broken_dir):
        _rewrite_manifest(
            broken_dir, lambda m: m["stats"].update({"no_such_counter": 1})
        )
        with pytest.raises(PersistError, match="malformed stats record"):
            CorpusIndex.load(broken_dir)

    def test_malformed_extractor_record(self, broken_dir):
        _rewrite_manifest(broken_dir, lambda m: m["extractor"].pop("seasonal"))
        with pytest.raises(PersistError, match="malformed extractor record"):
            CorpusIndex.load(broken_dir)


class TestPartitionFailures:
    @staticmethod
    def _first_partition(directory):
        manifest = json.loads((directory / INDEX_MANIFEST).read_text())
        return directory / manifest["partitions"][0]["file"]

    def test_missing_partition_file(self, broken_dir):
        self._first_partition(broken_dir).unlink()
        with pytest.raises(PersistError, match="missing partition file"):
            CorpusIndex.load(broken_dir)

    def test_checksum_mismatch(self, broken_dir):
        path = self._first_partition(broken_dir)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(PersistError, match="checksum mismatch"):
            CorpusIndex.load(broken_dir)

    def test_corrupt_partition_content(self, broken_dir):
        # Garbage *with a matching checksum* must still fail cleanly when
        # the NPZ container is decoded.
        import hashlib

        path = self._first_partition(broken_dir)
        path.write_bytes(b"not an npz archive at all")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()

        def fix_record(manifest):
            record = manifest["partitions"][0]
            record["sha256"] = digest
            record["nbytes"] = path.stat().st_size

        _rewrite_manifest(broken_dir, fix_record)
        with pytest.raises(PersistError, match="corrupt partition file"):
            CorpusIndex.load(broken_dir)

    def test_unknown_resolution_rejected(self, broken_dir):
        _rewrite_manifest(
            broken_dir,
            lambda m: m["partitions"][0].update({"spatial": "galaxy"}),
        )
        with pytest.raises(PersistError, match="unknown resolution"):
            CorpusIndex.load(broken_dir)

    def test_disk_usage_checks_integrity_too(self, broken_dir):
        path = broken_dir / INDEX_MANIFEST
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistError):
            disk_usage(broken_dir)

    def test_disk_usage_missing_partition_file(self, broken_dir):
        self._first_partition(broken_dir).unlink()
        with pytest.raises(PersistError, match="missing partition file"):
            disk_usage(broken_dir)

    def test_all_failures_are_repro_errors(self, tmp_path):
        # The single-except contract: PersistError derives from ReproError.
        with pytest.raises(ReproError):
            CorpusIndex.load(tmp_path / "missing")
