"""Atomic replica writes and the post-crash recovery sweep."""

from __future__ import annotations

import pytest

from repro.collection import (
    Manifest,
    TMP_SUFFIX,
    CollectionStore,
    atomic_write_bytes,
    save_manifest,
)
from repro.exceptions import ReproError, StoreNameError
from repro.resilience import RecoveryReport, recover_store
from repro.resilience.recovery import QUARANTINE_DIR


class TestAtomicWrite:
    def test_writes_bytes_and_leaves_no_temporary(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a/b/file.bin", b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.rglob(f"*{TMP_SUFFIX}")) == []

    def test_overwrites_existing_file(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_temporary_is_a_sibling(self, tmp_path):
        """The temp lives next to its target (same filesystem) so the
        final rename is the atomic syscall it needs to be."""
        target = tmp_path / "deep/file.bin"
        temp = target.with_name(target.name + TMP_SUFFIX)
        atomic_write_bytes(target, b"x")
        assert temp.parent == target.parent


class TestCollectionStore:
    def test_roundtrip(self, tmp_path):
        store = CollectionStore(tmp_path)
        store.write_collection({"a.txt": b"A", "sub/dir/b.txt": b"B"})
        assert store.read_file("a.txt") == b"A"
        assert store.read_file("sub/dir/b.txt") == b"B"

    @pytest.mark.parametrize("name", ["/etc/passwd", "../escape", "a/../../b"])
    def test_escaping_names_rejected(self, tmp_path, name):
        store = CollectionStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for(name)

    @pytest.mark.parametrize("name", ["/etc/passwd", "../escape", "a/../../b"])
    def test_escaping_name_error_is_typed(self, tmp_path, name):
        with pytest.raises(ReproError) as info:
            CollectionStore(tmp_path).path_for(name)
        assert isinstance(info.value, StoreNameError)

    def test_manifest_save_is_atomic(self, tmp_path):
        manifest = Manifest.of_collection({"a": b"aaa"})
        save_manifest(manifest, tmp_path / "m.txt")
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []


class TestRecoverStore:
    def test_clean_directory_reports_clean(self, tmp_path):
        (tmp_path / "file.bin").write_bytes(b"x")
        report = recover_store(tmp_path)
        assert isinstance(report, RecoveryReport)
        assert report.clean

    def test_quarantines_orphaned_temporaries(self, tmp_path):
        orphan = tmp_path / f"sub/file.bin{TMP_SUFFIX}"
        orphan.parent.mkdir()
        orphan.write_bytes(b"half-written")
        (tmp_path / "sub/file.bin").write_bytes(b"previous intact version")

        report = recover_store(tmp_path)
        assert not report.clean
        assert len(report.quarantined) == 1
        moved = report.quarantined[0]
        assert moved.parent == tmp_path / QUARANTINE_DIR
        assert moved.read_bytes() == b"half-written"
        assert not orphan.exists()
        # The visible file was never touched.
        assert (tmp_path / "sub/file.bin").read_bytes() == (
            b"previous intact version"
        )
        # A second sweep finds nothing.
        assert recover_store(tmp_path).clean

    def test_quarantine_names_do_not_collide(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / f"a/f{TMP_SUFFIX}").write_bytes(b"1")
        (tmp_path / f"b/f{TMP_SUFFIX}").write_bytes(b"2")
        report = recover_store(tmp_path)
        assert len(report.quarantined) == 2
        assert {p.read_bytes() for p in report.quarantined} == {b"1", b"2"}

    def test_manifest_check_flags_missing_and_stale(self, tmp_path):
        files = {"ok.txt": b"ok", "stale.txt": b"expected", "gone.txt": b"g"}
        manifest = Manifest.of_collection(files)
        (tmp_path / "ok.txt").write_bytes(b"ok")
        (tmp_path / "stale.txt").write_bytes(b"tampered")

        report = recover_store(tmp_path, manifest=manifest)
        assert report.missing == ["gone.txt"]
        assert report.stale == ["stale.txt"]

    def test_lists_pending_journals(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "file-abc.ckpt").write_bytes(b"journal")
        report = recover_store(tmp_path, checkpoint_dir=ckpt)
        assert report.pending_journals == [ckpt / "file-abc.ckpt"]
        assert not report.clean
