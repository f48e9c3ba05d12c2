"""Tests for the multiround-rsync baseline (Langford [25])."""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synchronize
from repro.multiround import MultiroundConfig, multiround_rsync_sync
from repro.net.channel import SimulatedChannel
from repro.rsync import rsync_sync
from tests.conftest import make_version_pair


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiroundConfig(min_block_size=1)
        with pytest.raises(ValueError):
            MultiroundConfig(start_block_size=32, min_block_size=64)
        with pytest.raises(ValueError):
            MultiroundConfig(hash_bits=4)


class TestCorrectness:
    def test_reconstruction(self):
        old, new = make_version_pair(seed=60, nbytes=30000, edits=10)
        result = multiround_rsync_sync(old, new)
        assert result.reconstructed == new

    def test_empty_files(self):
        assert multiround_rsync_sync(b"", b"").reconstructed == b""
        assert multiround_rsync_sync(b"x", b"").reconstructed == b""
        assert multiround_rsync_sync(b"", b"y").reconstructed == b"y"

    def test_identical_files(self):
        data = b"stable " * 2000
        result = multiround_rsync_sync(data, data)
        assert result.reconstructed == data
        # A handful of top-level hashes plus a tiny delta.
        assert result.total_bytes < 200

    def test_disjoint_files(self):
        rng = random.Random(3)
        old = bytes(rng.randrange(256) for _ in range(20000))
        new = bytes(rng.randrange(256) for _ in range(20000))
        result = multiround_rsync_sync(old, new)
        assert result.reconstructed == new

    def test_rounds_bounded_by_block_ladder(self):
        old, new = make_version_pair(seed=61, nbytes=30000, edits=10)
        config = MultiroundConfig(start_block_size=1024, min_block_size=64)
        result = multiround_rsync_sync(old, new, config)
        assert result.reconstructed == new
        assert result.rounds <= 6  # 1024 .. 64 is 5 halvings

    @given(st.binary(max_size=2500), st.binary(max_size=2500))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_pairs(self, old, new):
        config = MultiroundConfig(start_block_size=256, min_block_size=32)
        assert multiround_rsync_sync(old, new, config).reconstructed == new

    def test_low_hash_bits_recovered_by_fallback(self):
        """8-bit hashes collide wildly; the checksum must still save us."""
        rng = random.Random(4)
        old = bytes(rng.randrange(4) for _ in range(20000))
        new = bytearray(old)
        new[3000:3200] = bytes(rng.randrange(4) for _ in range(200))
        result = multiround_rsync_sync(
            old, bytes(new), MultiroundConfig(hash_bits=8)
        )
        assert result.reconstructed == bytes(new)

    def test_truncated_token_stream_takes_the_fallback(self):
        """A delta stream that ends mid-varint is a decode failure the
        client answers with the full transfer, not an exception."""

        class TruncatingChannel(SimulatedChannel):
            def send(self, direction, payload, phase, bits=None):
                if phase == "delta":
                    # A copy token whose first field never terminates.
                    payload = zlib.compress(
                        zlib.decompress(payload) + b"\x01\x80"
                    )
                super().send(direction, payload, phase, bits)

        old, new = make_version_pair(seed=62, nbytes=8000, edits=4)
        result = multiround_rsync_sync(old, new, channel=TruncatingChannel())
        assert result.used_fallback
        assert result.collisions_detected == 1
        assert result.reconstructed == new


class TestProgression:
    """The paper's position in the lineage, as an executable claim:
    rsync > multiround rsync > the paper's protocol."""

    def test_multiround_beats_plain_rsync(self):
        old, new = make_version_pair(seed=62, nbytes=60000, edits=15)
        multiround = multiround_rsync_sync(old, new)
        plain = rsync_sync(old, new)
        assert multiround.reconstructed == plain.reconstructed == new
        assert multiround.total_bytes < plain.total_bytes

    def test_paper_protocol_beats_multiround(self):
        old, new = make_version_pair(seed=63, nbytes=60000, edits=15)
        multiround = multiround_rsync_sync(old, new)
        ours = synchronize(old, new)
        assert ours.reconstructed == multiround.reconstructed == new
        assert ours.total_bytes < multiround.total_bytes
