"""Fidelity tests tied to specific statements in the paper's text."""

from __future__ import annotations

import random

from repro.core import ProtocolConfig, synchronize
from repro.hashing import DecomposableAdler
from repro.rsync import compute_signatures, rsync_sync
from repro.rsync.signature import signature_wire_bytes
from tests.conftest import make_version_pair


class TestSection2Rsync:
    def test_six_bytes_per_block(self):
        """§2.2: 'Thus, [6] bytes per block are transmitted from client
        to server' — 4 rolling + 2 of the strong hash."""
        signatures = compute_signatures(b"x" * 70_000, 700)
        assert signature_wire_bytes(signatures) == len(signatures) * 6

    def test_rolling_checksum_slides_in_constant_time(self):
        """§2.2: the checksum for [i+1, i+b] comes from [i, i+b-1] in
        constant time — i.e. rolling equals direct at every offset."""
        rng = random.Random(0)
        data = bytes(rng.randrange(256) for _ in range(2000))
        adler = DecomposableAdler.identity()  # rsync's plain checksum
        pair = adler.hash_block(data[:700])
        for i in range(1, 1000):
            pair = adler.roll(pair, 700, data[i - 1], data[i + 699])
            window = data[i : i + 700]
            assert pair == (
                sum(window) % 65536,
                sum((700 - j) * byte for j, byte in enumerate(window)) % 65536,
            )

    def test_one_changed_byte_per_block_defeats_rsync(self):
        """§2.3: 'If a single character is changed in each block ... no
        match will be found by the server and rsync will be completely
        ineffective.'"""
        rng = random.Random(1)
        old = bytes(rng.randrange(256) for _ in range(70_000))
        new = bytearray(old)
        for start in range(0, len(new), 700):
            new[start + 350] ^= 0xFF
        result = rsync_sync(old, bytes(new), block_size=700)
        assert result.reconstructed == bytes(new)
        # rsync ships essentially the whole (incompressible) file.
        assert result.total_bytes > 60_000

    def test_clustered_changes_favour_large_blocks(self):
        """§2.3: 'if all changes are clustered in a few areas of the
        file, rsync will do well even with a large block size.'"""
        old, new = make_version_pair(seed=140, nbytes=60000, edits=4)
        clustered_large = rsync_sync(old, new, block_size=4096)
        assert clustered_large.total_bytes < len(new) // 5


class TestSection5Framework:
    def test_figure_5_1_example(self):
        """Figure 5.1's toy instance: F_new = 'BDAFHKZER',
        F_old = 'ABADFHKBCZY' — the protocol must recover the common
        substrings and reconstruct exactly."""
        f_new = b"BDAFHKZER"
        f_old = b"ABADFHKBCZY"
        config = ProtocolConfig(
            start_block_size=4,
            min_block_size=2,
            continuation_min_block_size=2,
        )
        result = synchronize(f_old, f_new, config)
        assert result.reconstructed == f_new

    def test_map_known_areas_are_truthful(self):
        """§5.1: the map's known areas must be byte-identical regions."""
        old, new = make_version_pair(seed=141, nbytes=20000, edits=5)
        from repro.core.client import ClientSession
        from repro.core.server import ServerSession
        from repro.net import SimulatedChannel

        channel = SimulatedChannel()
        result = synchronize(old, new, ProtocolConfig(), channel)
        assert result.reconstructed == new
        assert not result.used_fallback
        # known_fraction > 0 implies genuine matches existed; with default
        # widths a false accept would have forced the fallback instead.
        assert result.known_fraction > 0.5


class TestSection6Claims:
    def test_unchanged_files_detected_cheaply(self):
        """§6.1: the 16-byte hash 'allows our code to detect unchanged
        files at that point'."""
        data = make_version_pair(seed=142, nbytes=30000)[0]
        result = synchronize(data, data)
        assert result.unchanged
        assert result.total_bytes < 48

    def test_best_results_beat_rsync_by_claimed_band(self):
        """Table 6.1's band: savings of ~1.5-2.5x over rsync."""
        old, new = make_version_pair(seed=143, nbytes=80000, edits=20)
        ours = synchronize(
            old, new,
            ProtocolConfig(min_block_size=32, continuation_min_block_size=8),
        )
        rsync_result = rsync_sync(old, new)
        ratio = rsync_result.total_bytes / ours.total_bytes
        assert ratio > 1.4
