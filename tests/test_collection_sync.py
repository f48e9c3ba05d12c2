"""Tests for whole-collection synchronization."""

from __future__ import annotations

import inspect
import os

import pytest

from repro.bench import OursMethod, RsyncMethod, ZdeltaMethod
from repro.collection import sync_collection
from repro.exceptions import IntegrityError
from repro.syncmethod import MethodOutcome, SyncMethod
from repro.workloads import gcc_like


#: Every option of ``sync_collection`` after its three positional
#: arguments: adding or removing one must be a deliberate change here.
SYNC_COLLECTION_OPTIONS = (
    "change_detection", "workers", "on_error", "link", "store",
    "pipeline", "window", "sibling_refs",
)


@pytest.fixture(scope="module")
def tree():
    return gcc_like(scale=0.08, seed=2)


class TestSyncCollection:
    def test_option_set_is_pinned(self):
        parameters = list(inspect.signature(sync_collection).parameters)
        assert parameters[:3] == ["client_files", "server_files", "method"]
        assert tuple(parameters[3:]) == SYNC_COLLECTION_OPTIONS

    def test_reconstruction_matches_server(self, tree):
        report = sync_collection(tree.old, tree.new, OursMethod())
        assert report.reconstructed == tree.new

    def test_unchanged_files_cost_only_manifest(self, tree):
        unchanged = {n: tree.old[n] for n in tree.common_names()
                     if tree.old[n] == tree.new[n]}
        report = sync_collection(unchanged, unchanged, OursMethod())
        assert report.changed_transfer_bytes == 0
        assert report.total_bytes == report.manifest_bytes

    def test_added_files_sent_compressed(self, tree):
        added = set(tree.new) - set(tree.old)
        report = sync_collection(tree.old, tree.new, RsyncMethod())
        if added:
            assert report.added_bytes > 0
            raw = sum(len(tree.new[n]) for n in added)
            assert report.added_bytes < raw  # compression helped

    def test_summary_totals(self, tree):
        report = sync_collection(tree.old, tree.new, ZdeltaMethod())
        summary = report.summary()
        assert summary["total"] == (
            summary["manifest"] + summary["changed"] + summary["added"]
        )

    def test_per_file_outcomes_only_for_changed(self, tree):
        report = sync_collection(tree.old, tree.new, OursMethod())
        assert set(report.per_file) == set(report.diff.changed)

    def test_counts(self, tree):
        report = sync_collection(tree.old, tree.new, OursMethod())
        assert report.files_changed == len(report.diff.changed)
        assert report.files_unchanged == len(report.diff.unchanged)
        assert report.files_changed + report.files_unchanged + len(
            report.diff.added
        ) == len(tree.new)

    @pytest.mark.parametrize("change_detection", ["manifest", "reconcile"])
    def test_non_utf8_names_sync(self, change_detection, tmp_path):
        """``os.fsdecode`` gives a non-UTF-8 file name as lone escape
        surrogates; it syncs, and is stored, under its original bytes."""
        name = os.fsdecode(b"bad\xffname")
        client = {name: b"version one\n" * 50, "same.txt": b"same"}
        server = {
            name: b"version two\n" * 50,
            "same.txt": b"same",
            os.fsdecode(b"added\xfe"): b"added",
        }
        report = sync_collection(
            client, server, OursMethod(),
            change_detection=change_detection, store=tmp_path,
        )
        assert report.diff.changed == [name]
        assert report.reconstructed == server
        assert (tmp_path / name).read_bytes() == server[name]
        if change_detection == "manifest":
            assert report.manifest_bytes == sum(
                len(os.fsencode(n)) + 1 + 16 for n in server
            )


def full_window(old_side, new_side, method=None):
    """One pipelined window holding every changed file: lockstep batches."""
    return sync_collection(
        old_side, new_side, method or OursMethod(),
        pipeline=True, window=max(len(old_side), 1),
    )


class TestBatchedCollectionSync:
    def test_reconstruction(self, tree):
        report = full_window(tree.old, tree.new)
        assert report.reconstructed == tree.new
        assert report.method == "ours"
        assert report.roundtrips_on_wire == report.waves

    def test_totals_consistent(self, tree):
        report = full_window(tree.old, tree.new)
        summary = report.summary()
        assert summary["total"] == (
            summary["manifest"] + summary["changed"] + summary["added"]
        )

    def test_comparable_bytes_to_per_file_mode(self, tree):
        batched = full_window(tree.old, tree.new)
        per_file = sync_collection(tree.old, tree.new, OursMethod())
        assert batched.total_bytes <= per_file.total_bytes * 1.05
        assert batched.roundtrips_on_wire < per_file.roundtrips_on_wire

    def test_config_respected(self, tree):
        from repro.core import ProtocolConfig

        report = full_window(
            tree.old, tree.new, OursMethod(ProtocolConfig(max_rounds=2))
        )
        assert report.reconstructed == tree.new


class _BrokenMethod(SyncMethod):
    name = "broken"

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return MethodOutcome(total_bytes=1, correct=False)


class TestVerification:
    def test_incorrect_method_raises(self, tree):
        with pytest.raises(IntegrityError):
            sync_collection(tree.old, tree.new, _BrokenMethod())
