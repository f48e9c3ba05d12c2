"""RetryPolicy and SyncSupervisor: retry, backoff, and the fallback ladder."""

from __future__ import annotations

import pytest

from repro.bench.methods import (
    FullTransferMethod,
    MultiroundRsyncMethod,
    OursMethod,
    RsyncMethod,
)
from repro.exceptions import ProtocolError, SyncFailedError
from repro.net import FaultPlan
from repro.resilience import RetryPolicy, SyncSupervisor, default_ladder
from repro.syncmethod import MethodOutcome, SyncMethod
from tests.conftest import make_version_pair


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy()
        schedule = [policy.backoff_seconds(k) for k in range(1, 9)]
        assert schedule == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
        # Saturated from the 7th failure on: no power is ever computed.
        assert policy.backoff_seconds(10**6) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            policy = RetryPolicy()
            policy.backoff_seconds(0)


class TestDefaultLadder:
    def test_full_ladder_below_ours(self):
        names = [rung.name for rung in default_ladder(OursMethod())]
        assert names == ["multiround", "rsync", "gzip-full"]

    def test_primary_rung_not_repeated(self):
        names = [rung.name for rung in default_ladder(RsyncMethod())]
        assert names == ["multiround", "gzip-full"]


class TestHappyPath:
    def test_passthrough_without_faults(self):
        """Zero overhead: the supervised outcome is byte-identical to the
        plain method's on a clean channel."""
        old, new = make_version_pair(seed=300, nbytes=12000, edits=6)
        plain = OursMethod().sync_file(old, new)
        supervised = SyncSupervisor(OursMethod()).sync_file(old, new)
        assert supervised.total_bytes == plain.total_bytes
        assert supervised.breakdown == plain.breakdown
        assert supervised.retries == 0
        assert supervised.fallback_method is None
        assert supervised.retransmitted_bytes == 0
        assert supervised.recovery_seconds == 0.0


class TestRecovery:
    def test_retry_cures_a_transient_fault(self):
        """One corrupted map message: the retry succeeds on the same
        rung, and the wasted attempt is charged as retransmission."""
        old, new = make_version_pair(seed=301, nbytes=10000, edits=5)
        plan = FaultPlan(seed=1, corrupt_rate=1.0, max_faults=1,
                         phases=frozenset({"map"}))
        supervisor = SyncSupervisor(OursMethod(), fault_plan=plan)
        outcome = supervisor.sync_file(old, new)
        assert outcome.correct
        assert outcome.retries == 1
        assert outcome.fallback_method is None
        assert outcome.retransmitted_bytes > 0
        assert outcome.recovery_seconds > 0.0

    def test_ladder_descends_to_rsync_when_map_phase_is_dead(self):
        """Permanent corruption of every map-phase message kills ours and
        multiround (both speak 'map'), but rsync's signature protocol
        does not use that phase and gets through."""
        old, new = make_version_pair(seed=302, nbytes=8000, edits=4)
        plan = FaultPlan(seed=2, corrupt_rate=1.0,
                         phases=frozenset({"map"}))
        retry = RetryPolicy(max_attempts=2)
        supervisor = SyncSupervisor(OursMethod(), retry=retry,
                                    fault_plan=plan)
        outcome = supervisor.sync_file(old, new)
        assert outcome.correct
        assert outcome.fallback_method == "rsync"
        # Both map-speaking rungs exhausted their attempts first.
        assert outcome.retries == 2 * retry.max_attempts

    def test_disconnect_mid_protocol_recovers(self):
        old, new = make_version_pair(seed=303, nbytes=9000, edits=5)
        plan = FaultPlan(seed=3, disconnect_after_sends=5)
        outcome = SyncSupervisor(OursMethod(), fault_plan=plan).sync_file(
            old, new
        )
        assert outcome.correct
        assert outcome.retries == 1

    def test_all_rungs_dead_raises_sync_failed(self):
        old, new = make_version_pair(seed=304, nbytes=4000, edits=3)
        plan = FaultPlan(seed=4, corrupt_rate=1.0)  # kills every message
        retry = RetryPolicy(max_attempts=2)
        supervisor = SyncSupervisor(OursMethod(), retry=retry,
                                    fault_plan=plan)
        with pytest.raises(SyncFailedError) as info:
            supervisor.sync_file(old, new)
        # 4 rungs (ours, multiround, rsync, full) x 2 attempts each.
        assert info.value.attempts == 8
        assert len(info.value.history) == 8

    def test_incorrect_outcome_triggers_ladder(self):
        """A method that 'succeeds' with wrong bytes is treated as a
        failure — the integrity check feeds the ladder."""

        class LyingMethod(SyncMethod):
            name = "liar"

            def sync_file(self, old, new):
                return MethodOutcome(total_bytes=1, correct=False)

        old, new = make_version_pair(seed=305, nbytes=3000, edits=2)
        supervisor = SyncSupervisor(
            LyingMethod(), retry=RetryPolicy(max_attempts=1)
        )
        outcome = supervisor.sync_file(old, new)
        assert outcome.correct
        assert outcome.fallback_method == "multiround"
        assert outcome.retries == 1

    def test_protocol_error_is_recoverable(self):
        class FlakyMethod(SyncMethod):
            name = "flaky"

            def __init__(self):
                self.calls = 0

            def sync_file_over(self, old, new, channel):
                self.calls += 1
                if self.calls == 1:
                    raise ProtocolError("transient parse failure")
                return MethodOutcome(total_bytes=7)

            def sync_file(self, old, new):
                return self.sync_file_over(old, new, None)

        outcome = SyncSupervisor(FlakyMethod()).sync_file(b"a", b"b")
        assert outcome.retries == 1
        assert outcome.total_bytes == 7


class TestBackoffAccounting:
    def test_recovery_seconds_include_backoff_and_wasted_transfer(self):
        old, new = make_version_pair(seed=306, nbytes=10000, edits=5)
        plan = FaultPlan(seed=5, corrupt_rate=1.0, max_faults=2,
                         phases=frozenset({"map"}))
        outcome = SyncSupervisor(
            OursMethod(), fault_plan=plan
        ).sync_file(old, new)
        assert outcome.retries == 2
        # The two backoffs (0.5 + 1 s), plus the wasted transfer.
        wasted = outcome.recovery_seconds - 1.5
        assert wasted > 0.0
