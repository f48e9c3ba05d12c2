"""Full-window batching: every changed file shares each roundtrip.

A pipelined collection whose window holds every changed file runs all of
them in lockstep over one shared link — the paper's "many files can be
processed simultaneously".  These are the guarantees the retired
lockstep batch mode made, held against that one scheduler.
"""

from __future__ import annotations

import pytest

from repro.bench.methods import OursMethod
from repro.collection.sync import sync_collection
from repro.core import ProtocolConfig, synchronize
from repro.net import SimulatedChannel
from repro.workloads import gcc_like, make_web_collection
from tests.conftest import make_version_pair


def full_window(old_side, new_side, config=None):
    """Synchronise with every changed file in one window."""
    changed = sum(
        1
        for name in new_side
        if name in old_side and old_side[name] != new_side[name]
    )
    return sync_collection(
        old_side,
        new_side,
        OursMethod(config),
        pipeline=True,
        window=max(changed, 1),
    )


@pytest.fixture(scope="module")
def batch_pair():
    tree = gcc_like(scale=0.08, seed=6)
    names = sorted(set(tree.old) & set(tree.new))
    return (
        {n: tree.old[n] for n in names},
        {n: tree.new[n] for n in names},
    )


class TestCorrectness:
    def test_every_file_reconstructed(self, batch_pair):
        old_side, new_side = batch_pair
        report = full_window(old_side, new_side)
        assert report.reconstructed == new_side

    def test_unchanged_files_listed(self, batch_pair):
        old_side, new_side = batch_pair
        report = full_window(old_side, new_side)
        expected = {n for n in old_side if old_side[n] == new_side[n]}
        assert set(report.diff.unchanged) == expected
        assert expected.isdisjoint(report.per_file)

    def test_empty_batch(self):
        report = full_window({}, {})
        assert report.reconstructed == {}
        assert report.waves == report.roundtrips_on_wire == 0

    def test_single_file_matches_protocol(self):
        old, new = make_version_pair(seed=600, nbytes=12000)
        report = full_window({"f": old}, {"f": new})
        assert report.reconstructed["f"] == new
        assert report.per_file["f"].total_bytes == synchronize(old, new).total_bytes

    def test_names_only_on_one_side_ignored(self):
        """Only files on both sides run a lane; the rest are added or
        dropped outside the shared batches."""
        old, new = make_version_pair(seed=601, nbytes=4000)
        report = full_window(
            {"common": old, "client-only": b"x"},
            {"common": new, "server-only": b"y"},
        )
        assert set(report.per_file) == {"common"}
        assert report.reconstructed == {"common": new, "server-only": b"y"}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"verification": "trivial"},
            {"verification": "group3"},
            {"continuation_first": False},
            {"continuation_min_block_size": None},
            {"max_rounds": 2},
        ],
    )
    def test_variants(self, batch_pair, overrides):
        old_side, new_side = batch_pair
        report = full_window(old_side, new_side, ProtocolConfig(**overrides))
        assert report.reconstructed == new_side


class TestAmortization:
    def test_roundtrips_shared_not_summed(self, batch_pair):
        """The whole point: batch roundtrips ~ per-round, not per-file."""
        old_side, new_side = batch_pair
        report = full_window(old_side, new_side)

        per_file_roundtrips = 0
        for name in old_side:
            channel = SimulatedChannel()
            result = synchronize(old_side[name], new_side[name],
                                 channel=channel)
            assert result.reconstructed == new_side[name]
            per_file_roundtrips += channel.stats.roundtrips
        assert report.roundtrips_on_wire < per_file_roundtrips / 3

    def test_bytes_comparable_to_per_file(self, batch_pair):
        old_side, new_side = batch_pair
        report = full_window(old_side, new_side)
        per_file_total = 0
        for name in old_side:
            result = synchronize(old_side[name], new_side[name])
            per_file_total += result.total_bytes
        # Each file's protocol payload is unchanged by the shared link.
        assert report.changed_transfer_bytes <= per_file_total * 1.05

    def test_roundtrips_grow_with_rounds_not_files(self):
        small = make_web_collection(page_count=6, days=(0, 1), seed=9)
        large = make_web_collection(page_count=18, days=(0, 1), seed=9)
        report_small = full_window(small.snapshot(0), small.snapshot(1))
        report_large = full_window(large.snapshot(0), large.snapshot(1))
        assert report_large.reconstructed == large.snapshot(1)
        # Tripling the file count must not triple the roundtrips.
        assert report_large.roundtrips_on_wire < 2 * max(
            report_small.roundtrips_on_wire, 1
        )


class TestFallback:
    def test_corrupted_delta_falls_back_per_file(self, monkeypatch):
        from repro.core import server as server_module

        old_a, new_a = make_version_pair(seed=602, nbytes=6000)
        old_b, new_b = make_version_pair(seed=603, nbytes=6000)
        original = server_module.ServerSession.emit_delta
        victims = {new_a}

        def sabotage(self):
            delta = original(self)
            if self.data in victims and len(delta) > 4:
                corrupted = bytearray(delta)
                corrupted[len(corrupted) // 2] ^= 0xFF
                return bytes(corrupted)
            return delta

        monkeypatch.setattr(server_module.ServerSession, "emit_delta", sabotage)
        report = full_window({"a": old_a, "b": old_b}, {"a": new_a, "b": new_b})
        assert report.reconstructed == {"a": new_a, "b": new_b}
        fell_back = sorted(
            name
            for name, outcome in report.per_file.items()
            if "s2c/fallback" in outcome.breakdown
        )
        assert fell_back == ["a"]


class TestBatchWithRefinement:
    def test_refinement_composes_with_batching(self, batch_pair):
        old_side, new_side = batch_pair
        config = ProtocolConfig(
            min_block_size=128,
            continuation_min_block_size=None,
            refine_boundaries=True,
        )
        report = full_window(old_side, new_side, config)
        assert report.reconstructed == new_side
