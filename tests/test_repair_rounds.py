"""Tests for the surgical repair rounds (group-digest descent)."""

from __future__ import annotations

import random

import pytest

from repro.core import repair
from repro.core.repair import (
    DEFAULT_REPAIR_FANOUT,
    PHASE_REPAIR,
    repair_exchange,
    repair_salt,
)
from repro.hashing import file_fingerprint
from repro.multiround.protocol import multiround_rsync_sync
from repro.net.channel import SimulatedChannel
from repro.net.faults import CollisionFaultPlan, FaultKind
from repro.rsync import rsync_sync
from tests.conftest import make_version_pair


def damage(data: bytes, at: int, span: int = 4, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    out = bytearray(data)
    for offset in range(at, min(at + span, len(out))):
        out[offset] ^= rng.randrange(1, 256)
    return bytes(out)


class TestRepairExchange:
    @pytest.fixture
    def target(self):
        return random.Random(21).randbytes(40_000)

    def test_single_leaf_localized_and_fixed(self, target):
        damaged = damage(target, at=8_200)
        channel = SimulatedChannel()
        result = repair_exchange(
            channel, damaged, target, file_fingerprint(target), leaf_size=700
        )
        assert result.converged
        assert result.data == target
        assert result.leaves_repaired == 1
        assert result.rounds >= 1
        # Surgical: only a leaf (plus descent probes) crossed the wire.
        assert channel.stats.bytes_in_phase(PHASE_REPAIR) < len(target) // 4
        assert channel.stats.total_bytes == channel.stats.bytes_in_phase(
            PHASE_REPAIR
        )

    def test_multiple_scattered_leaves(self, target):
        damaged = target
        for at in (100, 17_000, 39_500):
            damaged = damage(damaged, at=at, seed=at)
        result = repair_exchange(
            SimulatedChannel(), damaged, target,
            file_fingerprint(target), leaf_size=700,
        )
        assert result.converged
        assert result.data == target
        assert result.leaves_repaired == 3

    def test_wider_fanout_uses_fewer_rounds(self, target, monkeypatch):
        """The fanout is a module constant; set on the module, a wider
        one localizes the damage in fewer descent rounds."""
        damaged = damage(target, at=8_200)
        narrow = repair_exchange(
            SimulatedChannel(), damaged, target,
            file_fingerprint(target), leaf_size=700,
        )
        monkeypatch.setattr(repair, "DEFAULT_REPAIR_FANOUT", 8)
        wide = repair_exchange(
            SimulatedChannel(), damaged, target,
            file_fingerprint(target), leaf_size=700,
        )
        assert narrow.converged and wide.converged
        assert wide.rounds < narrow.rounds

    def test_equal_data_does_not_converge(self, target):
        """No divergent leaf found → the caller must fall back, never
        trust a blind 'repair'."""
        result = repair_exchange(
            SimulatedChannel(), target, target,
            file_fingerprint(b"something else"), leaf_size=700,
        )
        assert not result.converged
        assert result.leaves_repaired == 0

    def test_validation(self, target):
        fp = file_fingerprint(target)
        with pytest.raises(ValueError):
            repair_exchange(
                SimulatedChannel(), target[:-1], target, fp, leaf_size=700
            )
        with pytest.raises(ValueError):
            repair_exchange(
                SimulatedChannel(), target, target, fp, leaf_size=0
            )

    def test_empty_target_refused(self):
        result = repair_exchange(
            SimulatedChannel(), b"", b"", file_fingerprint(b""), leaf_size=64
        )
        assert not result.converged

    def test_tiny_file_single_leaf(self):
        target = b"0123456789"
        damaged = damage(target, at=3, span=2)
        result = repair_exchange(
            SimulatedChannel(), damaged, target,
            file_fingerprint(target), leaf_size=64,
        )
        assert result.converged
        assert result.data == target

    def test_salt_is_per_fingerprint(self):
        assert repair_salt(b"a" * 16) != repair_salt(b"b" * 16)


class TestProtocolIntegration:
    @pytest.fixture
    def pair(self):
        return make_version_pair(seed=83, nbytes=60_000)

    def test_rsync_collision_repaired_surgically(self, pair):
        old, new = pair
        plan = CollisionFaultPlan(seed=6)
        result = rsync_sync(old, new, channel=plan.channel())
        assert plan.injected[FaultKind.COLLIDE] == 1
        assert result.reconstructed == new
        assert result.collisions_detected == 1
        assert result.repaired and not result.used_fallback
        assert result.repair_rounds > 0
        assert 0 < result.repair_bytes < len(new) // 4
        # Successful repair is *useful* traffic, not retransmission.
        assert result.stats.retransmitted_bytes == 0

    def test_multiround_collision_repaired_surgically(self, pair):
        old, new = pair
        plan = CollisionFaultPlan(seed=6)
        result = multiround_rsync_sync(old, new, channel=plan.channel())
        assert plan.injected[FaultKind.COLLIDE] == 1
        assert result.reconstructed == new
        assert result.collisions_detected == 1
        assert result.repaired and not result.used_fallback
        assert 0 < result.repair_bytes < len(new) // 4

    def test_engine_parity_under_forced_collision(self):
        """The whole forced-collision run — transcript, checkpoints and
        repair figures — equals what both former multiround round
        engines produced (``golden_multiround.json``)."""
        from tests.test_golden_multiround import (
            _golden,
            as_json,
            collision_fixture,
        )

        assert as_json(collision_fixture()) == (
            _golden()["cases"]["forced-collision"]
        )

    def test_repair_disabled_falls_back(self, pair):
        old, new = pair
        plan = CollisionFaultPlan(seed=6)
        result = rsync_sync(old, new, channel=plan.channel(), repair=False)
        assert result.used_fallback and not result.repaired
        assert result.reconstructed == new
        # The doomed delta AND the whole-file fallback are charged as
        # retransmission (NACK-plus-whole-file satellite).
        assert result.stats.retransmitted_bytes > 0

    def test_failed_repair_falls_back(self, pair, monkeypatch):
        """A repair that cannot converge must surrender to the full
        fallback, with all its traffic rebilled as retransmission."""
        import repro.core.repair as repair_mod
        from repro.core.repair import RepairResult

        def never_converges(channel, damaged, target, *args, **kwargs):
            return RepairResult(damaged, 3, 0, 0, converged=False)

        old, new = pair
        # Both protocols finish with the one integrity endgame.
        monkeypatch.setattr(repair_mod, "repair_exchange", never_converges)
        for result in (
            rsync_sync(
                old, new, channel=CollisionFaultPlan(seed=6).channel()
            ),
            multiround_rsync_sync(
                old, new, channel=CollisionFaultPlan(seed=6).channel()
            ),
        ):
            assert result.used_fallback and not result.repaired
            assert result.reconstructed == new
            assert result.collisions_detected == 1
            assert result.stats.retransmitted_bytes > 0

    def test_clean_run_untouched(self, pair):
        """No collision → no repair traffic, no counters, identical
        accounting to a plain channel run."""
        old, new = pair
        plain = rsync_sync(old, new)
        assert plain.collisions_detected == 0
        assert plain.repair_rounds == 0 and plain.repair_bytes == 0
        assert not plain.repaired
        assert plain.stats.bytes_in_phase(PHASE_REPAIR) == 0
        multi = multiround_rsync_sync(old, new)
        assert multi.collisions_detected == 0
        assert multi.stats.bytes_in_phase(PHASE_REPAIR) == 0

    def test_repair_fanout_knob(self, pair, monkeypatch):
        """rsync's repair descent follows the module's fanout."""
        old, new = pair
        rounds = {}
        for fanout in (2, 8):
            monkeypatch.setattr(repair, "DEFAULT_REPAIR_FANOUT", fanout)
            plan = CollisionFaultPlan(seed=6)
            result = rsync_sync(old, new, channel=plan.channel())
            assert result.repaired
            rounds[fanout] = result.repair_rounds
        assert rounds[8] < rounds[2]
        monkeypatch.undo()
        assert DEFAULT_REPAIR_FANOUT == repair.DEFAULT_REPAIR_FANOUT == 2


class TestCounterPlumbing:
    def test_counters_flow_to_collection_report(self):
        from repro.bench.methods import MultiroundRsyncMethod
        from repro.collection import sync_collection
        from repro.resilience import SyncSupervisor

        old, new = make_version_pair(seed=85, nbytes=30_000)
        client = {"a.bin": old, "same.bin": b"unchanged"}
        server = {"a.bin": new, "same.bin": b"unchanged"}
        plan = CollisionFaultPlan(seed=2)
        report = sync_collection(
            client,
            server,
            SyncSupervisor(MultiroundRsyncMethod(), fault_plan=plan),
        )
        assert report.reconstructed["a.bin"] == new
        assert report.collisions_detected == 1
        assert report.repair_bytes > 0

    def test_counters_flow_to_export_row(self):
        from repro.bench.export import run_to_row
        from repro.bench.methods import MultiroundRsyncMethod
        from repro.bench.runner import run_method_on_collection

        old, new = make_version_pair(seed=86, nbytes=30_000)
        run = run_method_on_collection(
            MultiroundRsyncMethod(), {"a.bin": old}, {"a.bin": new}
        )
        row = run_to_row(run)
        assert row["collisions_detected"] == 0
        assert row["repair_rounds"] == 0
        assert row["repair_bytes"] == 0
