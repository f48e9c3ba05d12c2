"""End-to-end tests of the full multi-round protocol."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig, synchronize
from repro.net import SimulatedChannel
from tests.conftest import make_version_pair


class TestCorrectness:
    def test_reconstruction_exact(self, text_pair):
        old, new = text_pair
        result = synchronize(old, new)
        assert result.reconstructed == new

    def test_identical_files_short_circuit(self):
        data = b"stable content " * 500
        result = synchronize(data, data)
        assert result.unchanged
        assert result.reconstructed == data
        # Handshake only: fingerprint + lengths + flag.
        assert result.total_bytes < 48

    def test_empty_server_file(self):
        result = synchronize(b"whatever", b"")
        assert result.reconstructed == b""

    def test_empty_client_file(self):
        result = synchronize(b"", b"fresh content " * 100)
        assert result.reconstructed == b"fresh content " * 100

    def test_single_byte_files(self):
        assert synchronize(b"a", b"b").reconstructed == b"b"

    def test_disjoint_files(self):
        rng = random.Random(5)
        old = bytes(rng.randrange(256) for _ in range(10000))
        new = bytes(rng.randrange(256) for _ in range(10000))
        result = synchronize(old, new)
        assert result.reconstructed == new
        assert result.known_fraction == 0.0

    @given(st.binary(max_size=2000), st.binary(max_size=2000))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_pairs(self, old, new):
        assert synchronize(old, new).reconstructed == new

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_seeded_version_pairs(self, seed):
        old, new = make_version_pair(seed=seed, nbytes=6000, edits=5)
        assert synchronize(old, new).reconstructed == new


class TestConfigurations:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"verification": "trivial"},
            {"verification": "light"},
            {"verification": "group1"},
            {"verification": "group2"},
            {"verification": "group3"},
            {"use_decomposable": False},
            {"continuation_min_block_size": None},
            {"continuation_first": False},
            {"use_local_hashes": True},
            {"refine_boundaries": True},
            {"min_block_size": 16, "continuation_min_block_size": 8},
            {"min_block_size": 256, "continuation_min_block_size": 256},
            {"start_block_size": 256, "min_block_size": 32},
            {"global_hash_bits": 24},
            {"max_candidate_positions": 1},
        ],
    )
    def test_all_variants_reconstruct(self, text_pair, overrides):
        old, new = text_pair
        config = ProtocolConfig(**overrides)
        result = synchronize(old, new, config)
        assert result.reconstructed == new

    def test_decomposable_saves_server_bits(self, text_pair):
        old, new = text_pair
        with_decomposable = synchronize(old, new, ProtocolConfig())
        without = synchronize(old, new, ProtocolConfig(use_decomposable=False))
        assert (
            with_decomposable.stats.server_to_client_bytes
            < without.stats.server_to_client_bytes
        )

    def test_continuation_extends_below_global_minimum(self):
        """Continuation hashes should improve coverage (smaller delta)
        compared to stopping at the global minimum."""
        old, new = make_version_pair(seed=77, nbytes=40000, edits=25)
        base = ProtocolConfig(min_block_size=128, continuation_min_block_size=None)
        cont = ProtocolConfig(min_block_size=128, continuation_min_block_size=16)
        without = synchronize(old, new, base)
        with_cont = synchronize(old, new, cont)
        assert with_cont.known_fraction >= without.known_fraction

    def test_smaller_min_block_more_matches(self, text_pair):
        old, new = text_pair
        coarse = synchronize(
            old, new, ProtocolConfig(min_block_size=512,
                                     continuation_min_block_size=None)
        )
        fine = synchronize(
            old, new, ProtocolConfig(min_block_size=32,
                                     continuation_min_block_size=None)
        )
        assert fine.known_fraction >= coarse.known_fraction


class TestAccounting:
    def test_phases_present(self, text_pair):
        old, new = text_pair
        result = synchronize(old, new)
        phases = result.stats.phases()
        assert "handshake" in phases
        assert "map" in phases
        assert "delta" in phases

    def test_totals_consistent(self, text_pair):
        old, new = text_pair
        result = synchronize(old, new)
        assert (
            result.stats.client_to_server_bytes
            + result.stats.server_to_client_bytes
            == result.total_bytes
        )

    def test_roundtrips_grow_with_rounds(self, text_pair):
        old, new = text_pair
        result = synchronize(old, new)
        assert result.stats.roundtrips >= result.rounds

    def test_external_channel_collects_stats(self, small_pair):
        old, new = small_pair
        channel = SimulatedChannel()
        result = synchronize(old, new, channel=channel)
        assert channel.stats.total_bytes == result.total_bytes

    def test_map_cost_scales_with_block_granularity(self, text_pair):
        old, new = text_pair
        coarse = synchronize(old, new, ProtocolConfig(min_block_size=512))
        fine = synchronize(old, new, ProtocolConfig(min_block_size=16,
                                                    continuation_min_block_size=16))
        assert fine.map_bytes > coarse.map_bytes


class TestMapQuality:
    def test_high_coverage_on_lightly_edited_file(self):
        old, new = make_version_pair(seed=88, nbytes=50000, edits=4)
        result = synchronize(old, new)
        assert result.known_fraction > 0.9

    def test_matched_blocks_reported(self, text_pair):
        old, new = text_pair
        result = synchronize(old, new)
        assert result.matched_blocks > 0


class TestComparativeShape:
    """The headline claims, at test scale."""

    def test_beats_rsync_default(self):
        from repro.rsync import rsync_sync

        old, new = make_version_pair(seed=99, nbytes=60000, edits=15)
        ours = synchronize(old, new)
        rsync = rsync_sync(old, new)
        assert ours.total_bytes < rsync.total_bytes

    def test_within_small_factor_of_zdelta(self):
        from repro.delta import zdelta_size

        old, new = make_version_pair(seed=100, nbytes=60000, edits=15)
        ours = synchronize(old, new)
        lower_bound = zdelta_size(old, new)
        assert ours.total_bytes < 5 * lower_bound
