"""Link-health estimation: evidence scoring, classification, the monitor.

The health layer is pure bookkeeping — deterministic, clockless — so it
is tested exhaustively at the unit level here; its integration with the
supervisor lives in test_resilience_adaptive.py.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ChannelClosedError,
    ChannelEmptyError,
    ChecksumMismatchError,
    DeltaFormatError,
    FrameCorruptionError,
    IntegrityError,
    ProtocolError,
    SyncStalledError,
)
from repro.net.faults import FaultPlan
from repro.resilience.health import (
    HEALTH_WINDOW,
    AttemptEvidence,
    FailureSignature,
    LinkHealthMonitor,
    TRANSIENT_SIGNATURES,
    classify_failure,
    fault_delta,
)


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "error, signature",
        [
            (FrameCorruptionError("crc"), FailureSignature.CORRUPTION),
            (ChannelEmptyError("dropped"), FailureSignature.DROP),
            (ChannelClosedError("gone"), FailureSignature.DISCONNECT),
            (DeltaFormatError("bad opcode"), FailureSignature.DECODE),
            (IntegrityError("hash mismatch"), FailureSignature.DECODE),
            (ChecksumMismatchError("collision"), FailureSignature.COLLISION),
            (SyncStalledError("no progress"), FailureSignature.STALL),
            (ProtocolError("malformed"), FailureSignature.PROTOCOL),
            (RuntimeError("unknown"), FailureSignature.PROTOCOL),
        ],
    )
    def test_taxonomy(self, error, signature):
        assert classify_failure(error) == signature

    def test_subclass_order_matters(self):
        """ChannelEmptyError subclasses ChannelClosedError but must map
        to DROP, ChecksumMismatchError subclasses IntegrityError but must
        map to COLLISION, and SyncStalledError subclasses ProtocolError
        but must map to STALL — the dedicated branches win."""
        assert issubclass(ChannelEmptyError, ChannelClosedError)
        assert issubclass(ChecksumMismatchError, IntegrityError)
        assert issubclass(SyncStalledError, ProtocolError)
        assert classify_failure(ChannelEmptyError("x")) == FailureSignature.DROP
        assert (classify_failure(ChecksumMismatchError("x"))
                == FailureSignature.COLLISION)
        assert classify_failure(SyncStalledError("x")) == FailureSignature.STALL

    def test_transient_set(self):
        assert TRANSIENT_SIGNATURES == {
            FailureSignature.CORRUPTION,
            FailureSignature.DROP,
            FailureSignature.DISCONNECT,
            FailureSignature.COLLISION,
        }
        assert FailureSignature.DECODE not in TRANSIENT_SIGNATURES
        assert FailureSignature.STALL not in TRANSIENT_SIGNATURES


class TestAttemptEvidence:
    def test_clean_success_is_exactly_one(self):
        assert AttemptEvidence(ok=True).attempt_score() == 1.0

    def test_faulty_success_discounted_by_retransmission(self):
        evidence = AttemptEvidence(
            ok=True,
            corruption_events=2,
            retransmitted_bits=1000,
            payload_bits=3000,
        )
        assert evidence.attempt_score() == pytest.approx(0.75)

    def test_failure_with_salvage_scores_quarter(self):
        assert (
            AttemptEvidence(ok=False, rounds_salvaged=3).attempt_score()
            == 0.25
        )
        assert (
            AttemptEvidence(ok=False, rounds_completed=1).attempt_score()
            == 0.25
        )

    def test_total_loss_scores_zero(self):
        assert AttemptEvidence(ok=False).attempt_score() == 0.0

    def test_scores_bounded(self):
        worst = AttemptEvidence(
            ok=True, retransmitted_bits=10**9, payload_bits=0,
            drop_events=5,
        )
        assert 0.0 <= worst.attempt_score() <= 1.0


class TestLinkHealthMonitor:
    def test_pristine_monitor_scores_exactly_one(self):
        """The happy path relies on the untouched default being 1.0."""
        assert LinkHealthMonitor().score == 1.0

    def test_score_is_window_mean(self):
        monitor = LinkHealthMonitor()
        monitor.record(AttemptEvidence(ok=True))
        monitor.record(AttemptEvidence(ok=False))
        assert monitor.score == pytest.approx(0.5)

    def test_window_forgets_ancient_outage(self):
        monitor = LinkHealthMonitor()
        for _ in range(HEALTH_WINDOW):
            monitor.record(AttemptEvidence(ok=False))
        assert monitor.score == 0.0
        for _ in range(HEALTH_WINDOW):
            monitor.record(AttemptEvidence(ok=True))
        assert monitor.score == 1.0

    def test_clean_streak_resets_on_any_blemish(self):
        monitor = LinkHealthMonitor()
        monitor.record(AttemptEvidence(ok=True))
        monitor.record(AttemptEvidence(ok=True))
        assert monitor.clean_streak == 2
        # A success that needed fault absorption is not "clean".
        monitor.record(AttemptEvidence(ok=True, drop_events=1))
        assert monitor.clean_streak == 0

    def test_counters(self):
        monitor = LinkHealthMonitor()
        monitor.record(AttemptEvidence(ok=True))
        monitor.record(AttemptEvidence(ok=False))
        monitor.record(AttemptEvidence(ok=False))
        assert monitor.attempts_seen == 3
        assert monitor.failures_seen == 2


class TestFaultDelta:
    def test_none_plan_is_empty(self):
        delta = fault_delta(None, 0)
        assert delta.events == 0

    def test_counts_only_past_mark(self):
        from repro.net import Direction

        plan = FaultPlan.uniform(1.0, seed=3)
        channel = plan.channel()
        channel.send(Direction.CLIENT_TO_SERVER, b"x" * 50, "map")
        mark = len(plan.fault_log)
        assert mark >= 1
        channel.send(Direction.CLIENT_TO_SERVER, b"y" * 50, "map")
        delta = fault_delta(plan, mark)
        assert delta.events == len(plan.fault_log) - mark
        assert (
            delta.corruption + delta.drops + delta.disconnects
            == delta.events
        )
