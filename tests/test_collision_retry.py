"""Tests for the core protocol's recovery after a rejected reconstruction.

The core protocol finishes through the integrity endgame every protocol
shares (:func:`~repro.core.repair.integrity_endgame`): a reconstruction
the whole-file fingerprint rejects is repaired by a leaf-digest descent
when its length is right, and fetched again in full when it is not.
"""

from __future__ import annotations

import zlib

from repro.core import ProtocolConfig, synchronize
from repro.core import server as server_module
from repro.delta import zdelta_encode
from tests.conftest import make_version_pair

ORIGINAL_EMIT = server_module.ServerSession.emit_delta


def wrong_content(self) -> bytes:
    """A delta that decodes to the right length but one wrong byte: what
    a truncated-hash collision leaves behind."""
    damaged = bytearray(self.data)
    damaged[len(damaged) // 2] ^= 0xFF
    return zdelta_encode(self.reference(), bytes(damaged))


def undecodable(self) -> bytes:
    """A delta cut short, which the client cannot decode at all."""
    return ORIGINAL_EMIT(self)[:3]


class TestCollisionRetry:
    def test_length_preserving_damage_is_repaired_surgically(
        self, monkeypatch
    ):
        old, new = make_version_pair(seed=920, nbytes=10000)
        monkeypatch.setattr(
            server_module.ServerSession, "emit_delta", wrong_content
        )
        result = synchronize(old, new)
        assert result.reconstructed == new
        assert result.collisions_detected == 1
        assert result.repaired and not result.used_fallback
        assert result.repair_rounds > 0
        assert result.repair_bytes == result.stats.bytes_in_phase("repair")
        # Fewer recovery bytes than the compressed full file, and no
        # full transfer at all.
        assert 0 < result.repair_bytes < len(zlib.compress(new, 9))
        assert result.stats.retransmitted_bytes == 0
        assert result.stats.bytes_in_phase("fallback") == 0

    def test_persistent_failure_still_falls_back_to_full(self, monkeypatch):
        old, new = make_version_pair(seed=921, nbytes=8000)
        monkeypatch.setattr(
            server_module.ServerSession, "emit_delta", undecodable
        )
        result = synchronize(old, new, ProtocolConfig())
        assert result.reconstructed == new
        assert result.collisions_detected == 1
        assert result.used_fallback and not result.repaired
        # The NACK and the whole compressed file are recovery traffic.
        assert result.stats.retransmitted_bytes > len(zlib.compress(new, 9))
        assert result.stats.bytes_in_phase("fallback") == 0

    def test_recovery_cost_counted_honestly(self, monkeypatch):
        """A repaired run pays the clean run's handshake and map, its own
        delta and exactly its repair bytes; it sends no success ACK."""
        old, new = make_version_pair(seed=922, nbytes=10000)
        clean = synchronize(old, new)
        monkeypatch.setattr(
            server_module.ServerSession, "emit_delta", wrong_content
        )
        repaired = synchronize(old, new)
        assert repaired.repaired
        for phase in ("handshake", "map"):
            assert repaired.stats.bytes_in_phase(phase) == (
                clean.stats.bytes_in_phase(phase)
            )
        assert clean.stats.bytes_in_phase("fallback") == 1  # the ACK
        assert repaired.total_bytes == (
            clean.total_bytes
            - clean.stats.bytes_in_phase("delta")
            - clean.stats.bytes_in_phase("fallback")
            + repaired.stats.bytes_in_phase("delta")
            + repaired.repair_bytes
        )
