"""Adaptive resilience: AIMD retry, circuit breakers, deadline budgets.

Unit coverage for the control loops plus the supervisor/collection
integration invariants the issue pins down:

* the happy path with the adaptive layer *enabled* stays byte-identical
  to a plain run — across serial and multi-worker dispatch, and the
  multiround protocol;
* a poisoned file trips its breaker and fails fast with partial
  accounting instead of consuming the run's retry budget;
* deadline breach degrades gracefully: checkpointed rounds salvaged,
  typed error, accounting preserved;
* non-transient failure signatures descend the ladder immediately
  instead of burning the remaining attempts on a beaten rung.
"""

from __future__ import annotations


import pytest

from repro.bench.methods import MultiroundRsyncMethod, OursMethod
from repro.collection import sync_collection
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    DeltaFormatError,
    IntegrityError,
    SyncFailedError,
)
from repro.lanes import run_lane
from repro.net import FaultPlan
from repro.resilience import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    DeadlineBudget,
    RetryPolicy,
    SyncSupervisor,
)
from repro.resilience.adaptive import (
    BREAKER_COOLDOWN_S,
    MAX_COOLDOWN_S,
    MAX_WIDEN,
    MIN_SCALE,
)
from repro.resilience.health import FailureSignature
from repro.syncmethod import MethodOutcome, SyncMethod
from repro.workloads import gcc_like
from tests.conftest import make_version_pair


class TestAdaptiveRetryPolicy:
    def test_duck_types_static_policy(self):
        policy = AdaptiveRetryPolicy(max_attempts=5)
        assert policy.max_attempts == 5

    def test_widen_on_transient_failure(self):
        policy = AdaptiveRetryPolicy()
        assert policy.scale == 1.0
        policy.note_failure(FailureSignature.CORRUPTION)
        assert policy.scale == 2.0
        policy.note_failure(FailureSignature.DROP)
        assert policy.scale == 4.0
        policy.note_failure(FailureSignature.DISCONNECT)
        policy.note_failure(FailureSignature.CORRUPTION)
        assert policy.scale == MAX_WIDEN == 8.0

    def test_non_transient_signature_does_not_widen(self):
        """Decode/stall/protocol indict the rung, not the link."""
        policy = AdaptiveRetryPolicy()
        policy.note_failure(FailureSignature.DECODE)
        policy.note_failure(FailureSignature.STALL)
        policy.note_failure(FailureSignature.PROTOCOL)
        assert policy.scale == 1.0

    def test_tighten_after_clean_streak(self):
        from repro.resilience.health import AttemptEvidence

        policy = AdaptiveRetryPolicy()
        policy.note_failure(FailureSignature.DROP)
        assert policy.scale == 2.0
        policy.monitor.record(AttemptEvidence(ok=True))
        policy.note_success()
        assert policy.scale == 2.0  # streak of 1: too soon
        policy.monitor.record(AttemptEvidence(ok=True))
        policy.note_success()
        assert policy.scale == 1.75  # additive decrease
        for _ in range(20):
            policy.monitor.record(AttemptEvidence(ok=True))
            policy.note_success()
        assert policy.scale == MIN_SCALE == 0.25

    def test_backoff_scales_with_aimd_state(self):
        """Same seed, same jitter draw: a widened policy backs off twice
        as long on the same rung."""
        calm, widened = AdaptiveRetryPolicy(), AdaptiveRetryPolicy()
        widened.note_failure(FailureSignature.DROP)
        assert widened.backoff_seconds(1) == pytest.approx(
            2.0 * calm.backoff_seconds(1)
        )

    def test_jitter_is_seeded_and_bounded(self):
        a, b = AdaptiveRetryPolicy(), AdaptiveRetryPolicy()
        seq_a = [a.backoff_seconds(1) for _ in range(10)]
        seq_b = [b.backoff_seconds(1) for _ in range(10)]
        assert seq_a == seq_b  # same seed, same draws
        for value in seq_a:
            assert 0.45 <= value <= 0.55  # 0.5 s ± 10 %
        assert len(set(seq_a)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(now=0.0)
            assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(now=30.0)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.0)
        breaker.record_success(now=0.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0.0)
        assert not breaker.allow(now=59.9)
        assert breaker.allow(now=60.0)  # admits the probe
        assert breaker.state == BreakerState.HALF_OPEN
        breaker.record_success(now=60.0)
        assert breaker.state == BreakerState.CLOSED

    def test_failed_probe_escalates_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0.0)       # opens until 60
        assert breaker.allow(now=60.0)        # half-open probe
        breaker.record_failure(now=60.0)      # re-opens until 60+120
        assert breaker.opens == 2
        assert not breaker.allow(now=179.9)
        assert breaker.allow(now=180.0)

    def test_cooldown_capped(self):
        breaker = CircuitBreaker(failure_threshold=1)
        now = 0.0
        for _ in range(4):  # 60 -> 120 -> 240 -> 480 -> 960, capped
            breaker.allow(now)
            breaker.record_failure(now)
            now += 1000.0
        assert breaker._current_cooldown == MAX_COOLDOWN_S == 900.0

    def test_successful_probe_resets_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0.0)
        breaker.allow(now=60.0)
        breaker.record_success(now=60.0)
        breaker.record_failure(now=60.0)  # re-opens with the base cooldown
        assert not breaker.allow(now=119.9)
        assert breaker.allow(now=120.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestBreakerBoard:
    def test_per_name_isolation(self):
        board = BreakerBoard(failure_threshold=1)
        board.breaker("a").record_failure(board.clock)
        assert board.breaker("a").state == BreakerState.OPEN
        assert board.breaker("b").state == BreakerState.CLOSED
        assert board.total_opens == 1

    def test_shared_clock_advances_cooldowns(self):
        board = BreakerBoard(failure_threshold=1)
        breaker = board.breaker("f")
        breaker.record_failure(board.clock)
        assert not breaker.allow(board.clock)
        board.advance(60.0)  # the rest of the run makes progress
        assert breaker.allow(board.clock)

    def test_anonymous_key(self):
        board = BreakerBoard()
        assert board.breaker(None) is board.breaker(None)


class TestDeadlineBudget:
    def test_charge_and_exhaustion(self):
        budget = DeadlineBudget(100.0)
        budget.charge(60.0)
        assert budget.remaining_s == 40.0
        assert not budget.exhausted
        budget.charge(40.0)
        assert budget.exhausted
        assert budget.remaining_s == 0.0

    def test_negative_charges_ignored(self):
        budget = DeadlineBudget(10.0)
        budget.charge(-5.0)
        assert budget.spent_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)


class _AlwaysCorruptPlan:
    """Shorthand: a plan that corrupts every message, forever."""

    @staticmethod
    def make(seed=9):
        return FaultPlan(seed=seed, corrupt_rate=1.0)


class TestSupervisorIntegration:
    def test_breaker_fails_fast_with_partial_accounting(self):
        old, new = make_version_pair(seed=401, nbytes=4000, edits=3)
        board = BreakerBoard(failure_threshold=3)
        supervisor = SyncSupervisor(
            OursMethod(),
            retry=AdaptiveRetryPolicy(max_attempts=4),
            fault_plan=_AlwaysCorruptPlan.make(),
            breakers=board,
        )
        with pytest.raises(CircuitOpenError) as info:
            run_lane(supervisor.lane("poisoned", old, new))[0]
        # Exactly threshold attempts burnt, not 4 rungs x 4 attempts.
        assert info.value.attempts == 3
        partial = info.value.partial
        assert partial is not None and not partial.correct
        assert partial.retries == 3
        assert partial.breaker_opens == 1
        assert partial.retransmitted_bytes > 0
        assert partial.health_score < 1.0

    def test_breaker_reopens_cooldown_then_probe(self):
        """An open breaker refuses the file until the shared clock has
        moved past the cooldown — 'come back to this file later' — then
        admits one half-open probe, which on a healed link closes it."""
        old, new = make_version_pair(seed=402, nbytes=4000, edits=3)
        board = BreakerBoard(failure_threshold=2)
        plan = FaultPlan(seed=11, corrupt_rate=1.0, max_faults=2)
        supervisor = SyncSupervisor(
            OursMethod(),
            retry=AdaptiveRetryPolicy(max_attempts=6),
            fault_plan=plan,
            breakers=board,
        )
        with pytest.raises(CircuitOpenError):
            run_lane(supervisor.lane("healing", old, new))[0]
        assert board.breaker("healing").state == BreakerState.OPEN
        # The rest of the run makes progress; the faults have burnt out.
        board.advance(BREAKER_COOLDOWN_S)
        outcome = run_lane(supervisor.lane("healing", old, new))[0]
        assert outcome.correct
        assert board.breaker("healing").state == BreakerState.CLOSED
        assert board.total_opens == 1

    def test_file_deadline_breach_raises_typed_error(self):
        old, new = make_version_pair(seed=403, nbytes=4000, edits=3)
        supervisor = SyncSupervisor(
            OursMethod(),
            retry=AdaptiveRetryPolicy(max_attempts=10),
            fault_plan=_AlwaysCorruptPlan.make(),
            deadline_s=60.0,
        )
        with pytest.raises(DeadlineExceededError) as info:
            supervisor.sync_file(old, new)
        partial = info.value.partial
        assert partial is not None
        assert partial.retries >= 1
        assert partial.recovery_seconds >= 60.0

    def test_run_budget_shared_across_files(self):
        old, new = make_version_pair(seed=404, nbytes=4000, edits=3)
        budget = DeadlineBudget(80.0)
        supervisor = SyncSupervisor(
            OursMethod(),
            retry=AdaptiveRetryPolicy(max_attempts=10),
            fault_plan=_AlwaysCorruptPlan.make(),
            budget=budget,
        )
        with pytest.raises(DeadlineExceededError):
            run_lane(supervisor.lane("first", old, new))[0]
        assert budget.exhausted
        # The next file is refused before burning a single attempt.
        with pytest.raises(DeadlineExceededError) as info:
            run_lane(supervisor.lane("second", old, new))[0]
        assert info.value.partial.retries == 0

    def test_decode_signature_descends_ladder_immediately(self):
        """A rung whose delta cannot be decoded under the adaptive policy
        burns ONE attempt, not max_attempts — the signature router sends
        the supervisor down the ladder."""

        class BrokenDecoder(SyncMethod):
            name = "broken"

            def __init__(self):
                self.calls = 0

            def sync_file(self, old, new):
                self.calls += 1
                raise DeltaFormatError("unknown opcode")

        old, new = make_version_pair(seed=405, nbytes=3000, edits=2)
        broken = BrokenDecoder()
        outcome = SyncSupervisor(
            broken, retry=AdaptiveRetryPolicy(max_attempts=4)
        ).sync_file(old, new)
        assert outcome.correct
        assert broken.calls == 1
        assert outcome.retries == 1
        assert outcome.fallback_method == "multiround"

    def test_collision_signature_repairs_now_on_same_rung(self):
        """Wrong bytes are a *collision*, not a beaten rung: the adaptive
        router retries the same rung immediately (zero backoff) instead
        of descending the ladder after one attempt."""

        class LyingMethod(SyncMethod):
            name = "liar"

            def __init__(self):
                self.calls = 0

            def sync_file(self, old, new):
                self.calls += 1
                return MethodOutcome(total_bytes=1, correct=False)

        old, new = make_version_pair(seed=405, nbytes=3000, edits=2)
        liar = LyingMethod()
        outcome = SyncSupervisor(
            liar, retry=AdaptiveRetryPolicy(max_attempts=4)
        ).sync_file(old, new)
        assert outcome.correct
        # The whole same-rung budget is spent before descending...
        assert liar.calls == 4
        assert outcome.retries >= 4
        assert outcome.fallback_method == "multiround"
        # ...and repair-now means none of it waits out a backoff.
        assert outcome.adaptive_backoff_s == 0.0

    def test_static_policy_keeps_pr2_ladder_semantics(self):
        """The same lying rung under the *static* policy burns its whole
        attempt budget first — routing only activates with the adaptive
        policy, preserving historical behaviour byte for byte."""

        class LyingMethod(SyncMethod):
            name = "liar"

            def __init__(self):
                self.calls = 0

            def sync_file(self, old, new):
                self.calls += 1
                return MethodOutcome(total_bytes=1, correct=False)

        old, new = make_version_pair(seed=405, nbytes=3000, edits=2)
        liar = LyingMethod()
        outcome = SyncSupervisor(
            liar, retry=RetryPolicy(max_attempts=4)
        ).sync_file(old, new)
        assert liar.calls == 4
        assert outcome.retries == 4

    def test_adaptive_recovery_reports_health_below_one(self):
        old, new = make_version_pair(seed=406, nbytes=10000, edits=5)
        plan = FaultPlan(seed=1, corrupt_rate=1.0, max_faults=1,
                         phases=frozenset({"map"}))
        outcome = SyncSupervisor(
            OursMethod(), retry=AdaptiveRetryPolicy(), fault_plan=plan
        ).sync_file(old, new)
        assert outcome.correct
        assert outcome.retries == 1
        assert 0.0 < outcome.health_score < 1.0
        assert outcome.adaptive_backoff_s > 0.0


@pytest.fixture(scope="module")
def tree():
    return gcc_like(scale=0.05, seed=23)


def _adaptive(method, breaker_threshold=3, deadline_s=3600.0, **options):
    """``method`` under the full adaptive stack, as a collection run's."""
    return SyncSupervisor(
        method,
        retry=AdaptiveRetryPolicy(),
        breakers=BreakerBoard(failure_threshold=breaker_threshold),
        deadline_s=deadline_s,
        **options,
    )


def _summary_with_counters(report):
    return (
        report.summary(),
        {n: o.total_bytes for n, o in report.per_file.items()},
        report.health_score,
        report.breaker_opens,
        report.deadline_salvages,
        report.adaptive_backoff_s,
    )


class TestHappyPathByteIdentity:
    """ISSUE acceptance: a clean collection run with the adaptive layer
    enabled reports byte-identical numbers to a plain run."""

    def test_serial(self, tree):
        plain = sync_collection(tree.old, tree.new, OursMethod())
        adaptive = sync_collection(tree.old, tree.new, _adaptive(OursMethod()))
        assert adaptive.summary() == plain.summary()
        assert adaptive.health_score == 1.0
        assert adaptive.breaker_opens == 0
        assert adaptive.deadline_salvages == 0
        assert adaptive.adaptive_backoff_s == 0.0

    def test_parallel_dispatch(self, tree):
        plain = sync_collection(tree.old, tree.new, OursMethod())
        adaptive = sync_collection(
            tree.old, tree.new, _adaptive(OursMethod()), workers=2
        )
        assert adaptive.summary() == plain.summary()
        assert adaptive.health_score == 1.0
        assert adaptive.breaker_opens == 0

    def test_run_deadline_forces_serial_but_identical(self, tree):
        plain = sync_collection(tree.old, tree.new, OursMethod())
        budgeted = sync_collection(
            tree.old, tree.new,
            SyncSupervisor(
                OursMethod(),
                retry=AdaptiveRetryPolicy(),
                budget=DeadlineBudget(1e9),
            ),
            workers=4,
        )
        assert budgeted.summary() == plain.summary()
        assert budgeted.workers == 1  # run budget implies serial

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_multiround_protocol(self, workers):
        """The adaptive layer leaves a clean multiround run untouched,
        serial or dispatched to workers, and the run's summary equals the
        one both former round engines produced
        (``golden_multiround.json``)."""
        from tests.test_golden_multiround import as_json, golden_outcome

        tree = gcc_like(scale=0.05, seed=23)
        plain = sync_collection(tree.old, tree.new, MultiroundRsyncMethod())
        adaptive = sync_collection(
            tree.old, tree.new, _adaptive(MultiroundRsyncMethod()),
            workers=workers,
        )
        assert adaptive.summary() == plain.summary()
        assert adaptive.workers == workers
        assert adaptive.health_score == 1.0
        assert adaptive.breaker_opens == 0
        assert as_json(sorted(plain.summary().items())) == golden_outcome(
            "adaptive/clean-summary"
        )


class TestCollectionGracefulDegradation:
    def test_breaker_failure_reported_not_raised(self, tree):
        """on_error='raise' still degrades gracefully for *typed*
        resilience failures: the poisoned file lands in report.failed."""
        plan = FaultPlan(seed=12, corrupt_rate=1.0)
        report = sync_collection(
            tree.old, tree.new,
            _adaptive(
                OursMethod(), breaker_threshold=2, deadline_s=600.0,
                fault_plan=plan,
            ),
            on_error="raise",
        )
        assert report.files_failed == len(report.failed)
        assert report.files_failed >= 1
        assert report.breaker_opens + report.deadline_salvages >= 0
        assert report.health_score < 1.0

    def test_plain_failures_still_raise(self, tree):
        """Without breakers/deadlines, on_error='raise' keeps raising."""
        plan = FaultPlan(seed=12, corrupt_rate=1.0)
        with pytest.raises(SyncFailedError):
            sync_collection(
                tree.old, tree.new,
                SyncSupervisor(
                    OursMethod(),
                    retry=RetryPolicy(max_attempts=1),
                    fault_plan=plan,
                ),
                on_error="raise",
            )

    def test_skip_mode_records_partial_accounting(self, tree):
        plan = FaultPlan(seed=13, corrupt_rate=1.0)
        report = sync_collection(
            tree.old, tree.new,
            SyncSupervisor(
                OursMethod(),
                retry=AdaptiveRetryPolicy(),
                fault_plan=plan,
                breakers=BreakerBoard(failure_threshold=2),
            ),
            on_error="skip",
        )
        assert report.files_failed >= 1
        assert report.total_retries >= 1  # doomed attempts still counted
        assert report.retransmitted_bytes > 0
