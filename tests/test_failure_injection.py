"""Failure injection: the protocol must stay correct under engineered
hash collisions, absurd configurations, and adversarial content."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.rsync import rsync_sync
from tests.conftest import make_version_pair


class TestLowEntropyHashes:
    """Tiny hash widths force false candidates; verification and the
    whole-file checksum must keep the outcome correct."""

    @pytest.mark.parametrize("global_bits", [4, 6, 8])
    def test_tiny_global_hashes(self, global_bits):
        old, new = make_version_pair(seed=200, nbytes=15000, edits=10)
        config = ProtocolConfig(global_hash_bits=global_bits)
        result = synchronize(old, new, config)
        assert result.reconstructed == new

    def test_one_bit_continuation_hashes(self):
        old, new = make_version_pair(seed=201, nbytes=15000, edits=10)
        config = ProtocolConfig(continuation_hash_bits=1)
        result = synchronize(old, new, config)
        assert result.reconstructed == new

    def test_weak_verification_still_correct(self):
        """'light' verification with tiny candidate hashes lets some false
        matches through to the reference — the fingerprint check plus
        fallback must absorb that."""
        rng = random.Random(4)
        # Low-entropy content maximises collisions.
        old = bytes(rng.randrange(3) for _ in range(20000))
        new = bytearray(old)
        for _ in range(5):
            position = rng.randrange(len(new) - 100)
            new[position : position + 50] = bytes(
                rng.randrange(3) for _ in range(50)
            )
        new = bytes(new)
        config = ProtocolConfig(global_hash_bits=4, verification="light")
        result = synchronize(old, new, config)
        assert result.reconstructed == new


class TestAdversarialContent:
    def test_all_zero_files(self):
        old = b"\x00" * 50000
        new = b"\x00" * 49000 + b"\x01" * 1000
        result = synchronize(old, new)
        assert result.reconstructed == new

    def test_periodic_content(self):
        """Periodic data creates massive numbers of candidate positions."""
        old = b"abcd" * 10000
        new = b"abcd" * 9000 + b"dcba" * 1000
        result = synchronize(old, new)
        assert result.reconstructed == new

    def test_new_file_repeats_old_fragment_many_times(self):
        old, _ = make_version_pair(seed=202, nbytes=4000)
        new = old[100:400] * 50
        result = synchronize(old, new)
        assert result.reconstructed == new

    def test_rsync_periodic_content(self):
        old = b"xy" * 20000
        new = b"xy" * 19000 + b"yx" * 500
        result = rsync_sync(old, new)
        assert result.reconstructed == new


class TestFallbackPath:
    def test_fallback_produces_correct_file_and_is_accounted(self, monkeypatch):
        """Corrupt the delta in flight: the client must detect it via the
        fingerprint and, since the damaged delta does not decode, fall
        back to a full transfer charged as recovery traffic."""
        from repro.core import protocol as protocol_module

        old, new = make_version_pair(seed=203, nbytes=8000)
        original_emit = protocol_module.ServerSession.emit_delta

        def corrupted_emit(self):
            delta = original_emit(self)
            if len(delta) < 4:
                return delta
            corrupted = bytearray(delta)
            corrupted[len(corrupted) // 2] ^= 0xFF
            return bytes(corrupted)

        monkeypatch.setattr(
            protocol_module.ServerSession, "emit_delta", corrupted_emit
        )
        result = synchronize(old, new)
        assert result.reconstructed == new
        assert result.collisions_detected == 1
        assert result.used_fallback and not result.repaired
        # The NACK and the whole compressed file, moved out of the
        # payload phases into the recovery charge.
        assert result.stats.retransmitted_bytes > len(zlib.compress(new, 9))
        assert result.stats.bytes_in_phase("fallback") == 0

    def test_unchanged_detection_cannot_be_fooled_by_length(self):
        """Same length, different content: must synchronise, not skip."""
        old = b"A" * 1000
        new = b"B" * 1000
        result = synchronize(old, new)
        assert not result.unchanged
        assert result.reconstructed == new
