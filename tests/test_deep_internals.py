"""Deep internal tests: the machinery behind batch mode, multiround
tokens, reconciliation parameters, and refinement bookkeeping."""

from __future__ import annotations

import random

import pytest

from repro.collection import Manifest, diff_manifests, reconcile_manifests
from repro.core import ProtocolConfig
from tests.conftest import make_version_pair


class TestReconcileParameters:
    def _pair(self, changes: int):
        files = {f"f{i:04d}": b"base-%d" % i for i in range(300)}
        new_files = dict(files)
        for i in range(changes):
            new_files[f"f{i:04d}"] = b"edit-%d" % i
        return (
            Manifest.of_collection(files),
            Manifest.of_collection(new_files),
        )

    @pytest.mark.parametrize("digest_bytes", [1, 4, 8, 16])
    def test_any_digest_width_correct(self, digest_bytes):
        """Narrow digests collide (extra recursion / false-clean risk is
        bounded by re-checking entries at the leaves) — the *diff* must
        still be exact for every width because leaf entries are compared
        verbatim."""
        client, server = self._pair(changes=7)
        expected = diff_manifests(client, server)
        diff, _channel = reconcile_manifests(
            client, server, digest_bytes=digest_bytes
        )
        assert diff.changed == expected.changed

    @pytest.mark.parametrize("leaf_size", [1, 2, 16, 64])
    def test_any_leaf_size_correct(self, leaf_size):
        client, server = self._pair(changes=7)
        expected = diff_manifests(client, server)
        diff, _channel = reconcile_manifests(
            client, server, leaf_size=leaf_size
        )
        assert diff.changed == expected.changed

    def test_bigger_leaves_fewer_roundtrips(self):
        client, server = self._pair(changes=7)
        _diff, shallow = reconcile_manifests(client, server, leaf_size=64)
        _diff, deep = reconcile_manifests(client, server, leaf_size=1)
        assert shallow.stats.roundtrips <= deep.stats.roundtrips


class TestMultiroundTokens:
    def test_overlapping_pins_skipped(self):
        """Two pinned blocks claiming overlapping server regions must not
        double-emit bytes."""
        from repro.multiround import MultiroundConfig, multiround_rsync_sync

        # Periodic content guarantees overlapping match opportunities.
        old = b"abcdefgh" * 2000
        new = b"abcdefgh" * 1900 + b"hgfedcba" * 100
        result = multiround_rsync_sync(
            old, new, MultiroundConfig(start_block_size=512, min_block_size=64)
        )
        assert result.reconstructed == new

    def test_all_literal_when_nothing_pins(self):
        from repro.multiround import multiround_rsync_sync

        rng = random.Random(0)
        old = bytes(rng.randrange(256) for _ in range(5000))
        new = bytes(rng.randrange(256) for _ in range(5000))
        result = multiround_rsync_sync(old, new)
        assert result.reconstructed == new
        # Incompressible literal payload dominates.
        assert result.total_bytes > len(new) * 0.95


class TestBatchInternals:
    def test_batch_handles_mixed_sizes(self):
        from repro.bench.methods import OursMethod
        from repro.collection import sync_collection

        pairs = {}
        servers = {}
        for index, nbytes in enumerate((100, 5_000, 60_000)):
            old, new = make_version_pair(seed=960 + index, nbytes=nbytes)
            pairs[f"f{index}"] = old
            servers[f"f{index}"] = new
        # One empty and one identical file mixed in.
        pairs["empty"] = b""
        servers["empty"] = b"now it has content"
        pairs["same"] = b"frozen"
        servers["same"] = b"frozen"
        report = sync_collection(
            pairs, servers, OursMethod(), pipeline=True, window=len(pairs)
        )
        assert report.reconstructed == servers
        assert "same" in report.diff.unchanged


class TestRefinementBookkeeping:
    def test_refined_regions_join_the_map(self):
        from repro.core import synchronize
        from repro.net import SimulatedChannel

        old, new = make_version_pair(seed=970, nbytes=50000, edits=8)
        coarse = ProtocolConfig(
            min_block_size=256, continuation_min_block_size=None
        )
        refined = coarse.with_overrides(refine_boundaries=True)
        channel = SimulatedChannel()
        base_result = synchronize(old, new, coarse)
        refined_result = synchronize(old, new, refined, channel)
        assert refined_result.reconstructed == new
        assert refined_result.known_fraction >= base_result.known_fraction
        # The refined map entries appear as extra matched regions.
        assert refined_result.matched_blocks >= base_result.matched_blocks
