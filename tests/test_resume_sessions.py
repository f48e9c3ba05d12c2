"""Resumable sessions: byte-exact continuation from every round boundary.

The property the checkpoint subsystem must uphold: a session interrupted
after any completed round and resumed from its checkpoint reconstructs
the same bytes with the *same cumulative wire accounting* as the
uninterrupted run — and, supervised end to end, strictly fewer total
bits than restarting from scratch.
"""

from __future__ import annotations

import pytest

from repro.bench.methods import MultiroundRsyncMethod, OursMethod
from repro.collection import sync_collection
from repro.core import ProtocolConfig, synchronize
from repro.exceptions import ResumeRefusedError
from repro.lanes import run_lane
from repro.multiround import multiround_rsync_sync
from repro.net import FaultPlan
from repro.net.channel import SimulatedChannel
from repro.resilience import CheckpointStore, RoundCheckpoint, SyncSupervisor
from tests.conftest import make_version_pair


class Recorder:
    """A checkpointer that keeps every round checkpoint in memory."""

    def __init__(self):
        self.checkpoints: list[RoundCheckpoint] = []

    def record_round(self, round_index, payload, stats):
        self.checkpoints.append(
            RoundCheckpoint.at_boundary(round_index, payload, stats)
        )


class TestCoreProtocolResume:
    def test_checkpointing_does_not_change_the_wire(self):
        old, new = make_version_pair(seed=420, nbytes=12000, edits=6)
        plain = synchronize(old, new)
        recorded = synchronize(old, new, checkpointer=Recorder())
        assert recorded.stats.bits_by == plain.stats.bits_by
        assert recorded.rounds == plain.rounds

    def test_resume_from_every_round_boundary(self):
        """Interrupt-at-round-k, for every k: the resumed run finishes
        with bit-identical cumulative accounting and identical bytes."""
        old, new = make_version_pair(seed=421, nbytes=15000, edits=8)
        recorder = Recorder()
        baseline = synchronize(old, new, checkpointer=recorder)
        assert baseline.reconstructed == new
        assert len(recorder.checkpoints) >= 3  # a real multi-round session

        for checkpoint in recorder.checkpoints:
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            resumed = synchronize(
                old, new, channel=channel, resume_from=checkpoint
            )
            assert resumed.reconstructed == new
            assert resumed.rounds == baseline.rounds
            assert resumed.stats.bits_by == baseline.stats.bits_by, (
                f"resume from round {checkpoint.round_index} diverged"
            )

    def test_resume_respects_max_rounds(self):
        old, new = make_version_pair(seed=422, nbytes=15000, edits=8)
        config = ProtocolConfig(max_rounds=3)
        recorder = Recorder()
        baseline = synchronize(old, new, config, checkpointer=recorder)
        assert baseline.reconstructed == new

        for checkpoint in recorder.checkpoints:
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            resumed = synchronize(
                old, new, config, channel=channel, resume_from=checkpoint
            )
            assert resumed.reconstructed == new
            assert resumed.stats.bits_by == baseline.stats.bits_by


class TestMultiroundResume:
    def test_resume_from_every_round_boundary(self):
        old, new = make_version_pair(seed=423, nbytes=15000, edits=8)
        recorder = Recorder()
        baseline = multiround_rsync_sync(old, new, checkpointer=recorder)
        assert baseline.reconstructed == new
        assert len(recorder.checkpoints) >= 3

        for checkpoint in recorder.checkpoints:
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            resumed = multiround_rsync_sync(
                old, new, channel=channel, resume_from=checkpoint
            )
            assert resumed.reconstructed == new
            assert resumed.rounds == baseline.rounds
            assert resumed.stats.bits_by == baseline.stats.bits_by, (
                f"resume from round {checkpoint.round_index} diverged"
            )


def grand_total(outcome) -> int:
    """Everything the link carried: useful traffic (which includes the
    resume handshake, charged on the channel) plus retransmissions."""
    return outcome.total_bytes + outcome.retransmitted_bytes


class TestSupervisedResumeSavings:
    def test_passthrough_with_checkpoints_and_no_faults(self):
        """Opt-in purity: checkpoints alone change nothing on the wire."""
        old, new = make_version_pair(seed=424, nbytes=12000, edits=6)
        plain = OursMethod().sync_file(old, new)
        supervised = SyncSupervisor(
            OursMethod(), checkpoints=CheckpointStore.in_memory()
        ).sync_file(old, new)
        assert supervised.total_bytes == plain.total_bytes
        assert supervised.breakdown == plain.breakdown
        assert supervised.resume_handshake_bits == 0
        assert supervised.rounds_salvaged == 0

    @pytest.mark.parametrize("method_factory",
                             [OursMethod, MultiroundRsyncMethod])
    def test_disconnect_sweep_resume_beats_restart(self, method_factory):
        """Sweep the disconnect point across the session.  Whenever the
        journal salvaged at least one round, the checkpointed run must
        move strictly fewer total bytes than the restarting one — the
        acceptance property of this subsystem."""
        old, new = make_version_pair(seed=425, nbytes=15000, edits=8)
        salvage_cases = 0
        for cutoff in range(2, 40, 3):
            plan = lambda: FaultPlan(seed=7, disconnect_after_sends=cutoff)
            restart = SyncSupervisor(
                method_factory(), fault_plan=plan()
            ).sync_file(old, new)
            resumed = SyncSupervisor(
                method_factory(),
                fault_plan=plan(),
                checkpoints=CheckpointStore.in_memory(),
            ).sync_file(old, new)
            assert restart.correct and resumed.correct
            if resumed.rounds_salvaged >= 1:
                salvage_cases += 1
                assert resumed.resume_handshake_bits > 0
                assert grand_total(resumed) < grand_total(restart), (
                    f"disconnect at send {cutoff}: resume "
                    f"{grand_total(resumed)} B !< restart "
                    f"{grand_total(restart)} B"
                )
        assert salvage_cases >= 3  # the sweep must exercise real salvage

    def test_durable_journal_salvages_across_processes(self, tmp_path):
        """A journal written by one supervisor 'process' is picked up by a
        completely fresh one started with resume=True — the cross-restart
        handoff, minus the actual process kill (that end-to-end variant
        lives in tests/test_crash_recovery.py)."""
        old, new = make_version_pair(seed=426, nbytes=15000, edits=8)
        method = OursMethod()
        plain = method.sync_file(old, new)

        # "Process one": journal a few completed rounds, then die without
        # committing (simply drop the journal object).
        recorder = Recorder()
        synchronize(old, new, checkpointer=recorder)
        head = recorder.checkpoints[2]
        journal = CheckpointStore(tmp_path).journal("f")
        journal.open(method.checkpoint_identity(old, new))
        for checkpoint in recorder.checkpoints[: 3]:
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            journal.record_round(
                checkpoint.round_index, checkpoint.payload, channel.stats
            )

        # "Process two": a fresh supervisor over a clean link resumes it.
        supervisor = SyncSupervisor(
            OursMethod(), checkpoints=CheckpointStore(tmp_path, resume=True)
        )
        outcome, _ = run_lane(supervisor.lane("f", old, new))
        assert outcome.correct
        assert outcome.rounds_salvaged == head.round_index
        assert outcome.resume_handshake_bits > 0
        # Cumulative accounting: the uninterrupted total plus only the
        # (tiny) resume handshake.
        handshake_ceiling = outcome.resume_handshake_bits // 8 + 2
        assert plain.total_bytes < outcome.total_bytes
        assert outcome.total_bytes <= plain.total_bytes + handshake_ceiling
        # The salvaged session committed: journal gone.
        assert CheckpointStore(tmp_path).pending() == []

    def test_resume_refused_without_durable_location(self):
        with pytest.raises(ResumeRefusedError):
            CheckpointStore(None, resume=True)


class TestCollectionCheckpointing:
    def test_collection_totals_unchanged_by_checkpoint_dir(self, tmp_path):
        """Acceptance criterion: without faults, a run with
        --checkpoint-dir is byte-identical on the wire to one without."""
        old_files = {}
        new_files = {}
        for index in range(4):
            old, new = make_version_pair(
                seed=430 + index, nbytes=6000, edits=4
            )
            old_files[f"dir/f{index}.bin"] = old
            new_files[f"dir/f{index}.bin"] = new

        plain = sync_collection(old_files, new_files, OursMethod())
        checked = sync_collection(
            old_files,
            new_files,
            SyncSupervisor(
                OursMethod(), checkpoints=CheckpointStore(tmp_path / "ckpt")
            ),
        )
        assert checked.total_bytes == plain.total_bytes
        assert checked.resume_handshake_bits == 0
        assert checked.rounds_salvaged == 0
        assert checked.checkpoint_bytes_written > 0  # journalled locally
        # Every session committed: no journals left behind.
        assert CheckpointStore(tmp_path / "ckpt").pending() == []
