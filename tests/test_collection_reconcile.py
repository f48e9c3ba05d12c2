"""Tests for Merkle-trie manifest reconciliation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import (
    Manifest,
    diff_manifests,
    reconcile_manifests,
    sync_collection,
)
from repro.bench import ZdeltaMethod
from repro.workloads import make_web_collection


def manifests_from(
    client_files: dict[str, bytes], server_files: dict[str, bytes]
) -> tuple[Manifest, Manifest]:
    return (
        Manifest.of_collection(client_files),
        Manifest.of_collection(server_files),
    )


def assert_same_diff(client: Manifest, server: Manifest) -> int:
    """Reconciliation must match the manifest diff; returns its cost."""
    expected = diff_manifests(client, server)
    diff, channel = reconcile_manifests(client, server)
    assert diff.changed == expected.changed
    assert diff.added == expected.added
    assert diff.removed == expected.removed
    assert sorted(diff.unchanged) == sorted(expected.unchanged)
    return channel.stats.total_bytes


class TestCorrectness:
    def test_identical_collections_one_digest(self):
        files = {f"f{i}": bytes([i]) for i in range(100)}
        client, server = manifests_from(files, files)
        cost = assert_same_diff(client, server)
        # Root digest + flag + tiny reply.
        assert cost < 16

    def test_empty_collections(self):
        client, server = manifests_from({}, {})
        assert_same_diff(client, server)

    def test_single_change(self):
        files = {f"f{i}": bytes([i]) for i in range(200)}
        changed = dict(files)
        changed["f7"] = b"different"
        client, server = manifests_from(files, changed)
        assert_same_diff(client, server)

    def test_additions_and_removals(self):
        client_files = {f"c{i}": b"x" for i in range(50)}
        server_files = {f"c{i}": b"x" for i in range(25)}  # half removed
        server_files.update({f"s{i}": b"y" for i in range(10)})  # added
        client, server = manifests_from(client_files, server_files)
        assert_same_diff(client, server)

    def test_disjoint_collections(self):
        client, server = manifests_from(
            {f"a{i}": b"1" for i in range(30)},
            {f"b{i}": b"2" for i in range(30)},
        )
        assert_same_diff(client, server)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10), st.binary(max_size=8),
            max_size=40,
        ),
        st.dictionaries(
            st.text(min_size=1, max_size=10), st.binary(max_size=8),
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_collections(self, client_files, server_files):
        client, server = manifests_from(client_files, server_files)
        assert_same_diff(client, server)


class TestCost:
    def test_few_changes_beat_manifest(self):
        """The point of the technique: cost ~ changes, not collection size."""
        files = {f"file{i:05d}.html": (b"v1-%d" % i) for i in range(500)}
        changed = dict(files)
        changed["file00123.html"] = b"v2"
        client, server = manifests_from(files, changed)
        cost = assert_same_diff(client, server)
        assert cost < server.wire_bytes() / 10

    def test_many_changes_degrade_gracefully(self):
        collection = make_web_collection(page_count=120, days=(0, 7), seed=5)
        client, server = manifests_from(
            collection.snapshot(0), collection.snapshot(7)
        )
        cost = assert_same_diff(client, server)
        # Never catastrophically worse than the plain manifest.
        assert cost < 3 * server.wire_bytes()

    def test_cost_scales_with_changes_not_size(self):
        def cost_for(total: int, changes: int) -> int:
            files = {f"f{i:06d}": b"base" for i in range(total)}
            new_files = dict(files)
            for i in range(changes):
                new_files[f"f{i:06d}"] = b"new!"
            client, server = manifests_from(files, new_files)
            return assert_same_diff(client, server)

        small_collection = cost_for(200, 2)
        large_collection = cost_for(800, 2)
        # 4x the files should cost far less than 4x the bytes.
        assert large_collection < 2.5 * small_collection


class TestIntegration:
    def test_sync_collection_with_reconcile(self):
        collection = make_web_collection(page_count=60, days=(0, 1), seed=6)
        report = sync_collection(
            collection.snapshot(0),
            collection.snapshot(1),
            ZdeltaMethod(),
            change_detection="reconcile",
        )
        assert report.reconstructed == collection.snapshot(1)

    def test_reconcile_cheaper_when_collection_mostly_static(self):
        files = {f"f{i:05d}": bytes([i % 250]) * 50 for i in range(300)}
        server_files = dict(files)
        server_files["f00005"] = b"changed content"
        manifest_report = sync_collection(
            files, server_files, ZdeltaMethod(), change_detection="manifest"
        )
        reconcile_report = sync_collection(
            files, server_files, ZdeltaMethod(), change_detection="reconcile"
        )
        assert reconcile_report.reconstructed == server_files
        assert reconcile_report.total_bytes < manifest_report.total_bytes / 5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sync_collection({}, {}, ZdeltaMethod(), change_detection="bogus")
