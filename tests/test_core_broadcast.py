"""Tests for broadcast synchronization (§7: server broadcast capability)."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core import ProtocolConfig
from repro.core.broadcast import _broadcast_levels, synchronize_broadcast
from repro.core.server import ServerSession
from repro.workloads import EditProfile, TextGenerator, mutate
from tests.test_collision_retry import wrong_content


def make_fleet(
    client_count: int, nbytes: int = 30000, seed: int = 0
) -> tuple[dict[str, bytes], bytes]:
    """One current server file; each client holds a different stale copy."""
    generator = TextGenerator(seed)
    rng = random.Random(seed)
    current = generator.generate(nbytes, rng)
    clients = {}
    for i in range(client_count):
        clients[f"client{i:02d}"] = mutate(
            current,
            random.Random(seed * 1000 + i),
            EditProfile(edit_count=4 + i % 3, cluster_count=2,
                        min_size=8, max_size=100),
            content=generator.snippet,
        )
    return clients, current


class TestCorrectness:
    def test_every_client_reconstructs(self):
        clients, current = make_fleet(5, seed=1)
        report = synchronize_broadcast(clients, current)
        for name in clients:
            assert report.reconstructed[name] == current, name

    def test_empty_fleet(self):
        report = synchronize_broadcast({}, b"content")
        assert report.reconstructed == {}
        assert report.total_bytes() == 0

    def test_client_already_current(self):
        _clients, current = make_fleet(1, seed=2)
        report = synchronize_broadcast({"fresh": current}, current)
        assert report.reconstructed["fresh"] == current
        assert report.unicast_bytes("fresh") == 0

    def test_disjoint_client(self):
        rng = random.Random(3)
        stale = bytes(rng.randrange(256) for _ in range(20000))
        _clients, current = make_fleet(1, seed=3)
        report = synchronize_broadcast({"lost": stale}, current)
        assert report.reconstructed["lost"] == current

    def test_heterogeneous_client_sizes(self):
        _clients, current = make_fleet(1, seed=4)
        fleet = {
            "empty": b"",
            "tiny": current[:50],
            "half": current[: len(current) // 2],
            "superset": current + b"extra trailing bytes",
        }
        report = synchronize_broadcast(fleet, current)
        for name in fleet:
            assert report.reconstructed[name] == current, name

    def test_without_decomposable(self):
        clients, current = make_fleet(2, seed=5)
        config = ProtocolConfig(use_decomposable=False)
        report = synchronize_broadcast(clients, current, config)
        for name in clients:
            assert report.reconstructed[name] == current


class TestEconomics:
    def test_shared_stream_independent_of_fleet_size(self):
        clients_small, current = make_fleet(2, seed=6)
        clients_large, _ = make_fleet(8, seed=6)
        small = synchronize_broadcast(clients_small, current)
        large = synchronize_broadcast(clients_large, current)
        assert small.shared_bytes == large.shared_bytes

    def test_per_client_server_egress_falls_with_fleet_size(self):
        """The broadcast case: server egress per client = shared/k +
        that client's private s2c traffic; it must decrease in k."""
        _clients, current = make_fleet(1, seed=7)

        def egress_per_client(k: int) -> float:
            clients, _ = make_fleet(k, seed=7)
            report = synchronize_broadcast(clients, current)
            private_s2c = sum(
                stats.server_to_client_bytes
                for stats in report.per_client_stats.values()
            )
            return (report.shared_bytes + private_s2c) / k

        assert egress_per_client(6) < egress_per_client(2)

    def test_decomposable_halves_shared_stream(self):
        clients, current = make_fleet(1, seed=8)
        with_it = synchronize_broadcast(clients, current)
        without = synchronize_broadcast(
            clients, current, ProtocolConfig(use_decomposable=False)
        )
        assert with_it.shared_bytes < 0.75 * without.shared_bytes


class TestIntegrity:
    """Each client's delta finishes through the shared integrity endgame,
    and every byte a client's stats charge is a message it sent."""

    @staticmethod
    def sabotage_second_client(monkeypatch, damage):
        """Damage the delta of the second client served (sorted order)."""
        original = ServerSession.emit_delta
        calls = []

        def emit(self):
            calls.append(self)
            delta = original(self)
            return damage(self, delta) if len(calls) == 2 else delta

        monkeypatch.setattr(ServerSession, "emit_delta", emit)

    def test_wrong_content_is_repaired(self, monkeypatch):
        clients, current = make_fleet(3, seed=7)
        clean = synchronize_broadcast(clients, current)
        self.sabotage_second_client(
            monkeypatch, lambda server, _delta: wrong_content(server)
        )
        report = synchronize_broadcast(clients, current)
        for name in clients:
            assert report.reconstructed[name] == current, name
        stats = report.per_client_stats["client01"]
        breakdown = stats.breakdown()
        assert breakdown["c2s/repair"] > 0 and breakdown["s2c/repair"] > 0
        assert stats.retransmitted_bytes == 0
        for name in ("client00", "client02"):
            assert report.per_client_stats[name].breakdown() == (
                clean.per_client_stats[name].breakdown()
            )
            assert "c2s/repair" not in clean.per_client_stats[name].breakdown()

    def test_undecodable_delta_gets_a_nack_and_the_file(self, monkeypatch):
        clients, current = make_fleet(3, seed=8)
        self.sabotage_second_client(monkeypatch, lambda _server, delta: delta[:3])
        report = synchronize_broadcast(clients, current)
        assert report.reconstructed["client01"] == current
        stats = report.per_client_stats["client01"]
        # The NACK and the compressed file are charged as recovery.
        assert stats.retransmitted_bytes > len(zlib.compress(current, 9))
        assert "c2s/fallback" not in stats.breakdown()
        for name in ("client00", "client02"):
            assert report.per_client_stats[name].retransmitted_bytes == 0

    def test_candidate_bitmap_is_charged(self):
        """A client that confirms nothing still sends one candidate bit
        per block of every level of the tree."""
        stale = random.Random(3).randbytes(20000)
        _clients, current = make_fleet(1, seed=3)
        report = synchronize_broadcast({"lost": stale}, current)
        levels = _broadcast_levels(len(current), ProtocolConfig())
        bitmap_bytes = sum(-(-starts.size // 8) for starts, _ in levels)
        assert report.per_client_stats["lost"].breakdown()["c2s/map"] >= (
            bitmap_bytes
        )
