"""Chaos schedules and the soak harness.

Covers the :class:`~repro.net.chaos.ChaosProfile` shapes as pure
functions, the determinism contract of
:class:`~repro.net.chaos.ScheduledFaultPlan` (same shape+seed ⇒ same
fault sequence, whatever traffic rides the link), the invariants of the
full soak matrix (``tests/soak.py``: every shape × every seed, short
profile), and — via a hypothesis state machine — the legality of every
circuit-breaker transition under arbitrary interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.net import Direction
from repro.net.chaos import (
    CHAOS_SHAPES,
    ChaosProfile,
    ScheduledFaultPlan,
    chaos_plan,
)
from repro.resilience.adaptive import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
)
from tests.soak import DEFAULT_SEEDS, DEFAULT_SHAPES, SOAK_PROFILES, run_soak


class TestChaosProfile:
    def test_steady_is_flat(self):
        profile = ChaosProfile(shape="steady", rate=0.3)
        assert {profile.rate_at(i) for i in range(500)} == {0.3}

    def test_bursty_alternates_peak_and_quiet(self):
        profile = ChaosProfile(shape="bursty", rate=0.4, quiet_rate=0.05,
                               burst_every=100, burst_length=20)
        assert profile.rate_at(0) == 0.4       # burst head
        assert profile.rate_at(19) == 0.4      # last burst send
        assert profile.rate_at(20) == 0.05     # quiet tail
        assert profile.rate_at(99) == 0.05
        assert profile.rate_at(100) == 0.4     # next cycle

    def test_periodic_square_wave(self):
        profile = ChaosProfile(shape="periodic", rate=0.4, quiet_rate=0.1,
                               burst_every=50)
        assert profile.rate_at(0) == 0.1       # even half-cycle: quiet
        assert profile.rate_at(49) == 0.1
        assert profile.rate_at(50) == 0.4      # odd half-cycle: peak
        assert profile.rate_at(99) == 0.4
        assert profile.rate_at(100) == 0.1

    def test_degrading_ramps_then_pins(self):
        profile = ChaosProfile(shape="degrading", rate=0.4, quiet_rate=0.0,
                               ramp_sends=100)
        assert profile.rate_at(0) == 0.0
        assert profile.rate_at(50) == pytest.approx(0.2)
        assert profile.rate_at(100) == 0.4
        assert profile.rate_at(10_000) == 0.4  # pinned at peak

    def test_rates_always_bounded(self):
        for shape in CHAOS_SHAPES:
            profile = chaos_plan(shape, rate=0.35).profile
            for i in range(0, 2000, 7):
                assert 0.0 <= profile.rate_at(i) <= 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosProfile(shape="lumpy")
        with pytest.raises(ValueError):
            ChaosProfile(rate=1.5)
        with pytest.raises(ValueError):
            ChaosProfile(rate=0.1, quiet_rate=0.2)
        with pytest.raises(ValueError):
            ChaosProfile(burst_every=10, burst_length=11)
        with pytest.raises(ValueError):
            chaos_plan("lumpy")


def _fault_sequence(plan: ScheduledFaultPlan, sends: int) -> list:
    """Drive ``sends`` messages and return the (kind, send#) log."""
    channel = plan.channel()
    for _ in range(sends):
        try:
            channel.send(Direction.CLIENT_TO_SERVER, b"x" * 64, "map")
        except Exception:
            channel = plan.channel()  # disconnect: reconnect, keep going
    return [(event.kind, event.send_index) for event in plan.fault_log]


class TestScheduledFaultPlan:
    @pytest.mark.parametrize("shape", CHAOS_SHAPES)
    def test_same_seed_same_fault_sequence(self, shape):
        first = _fault_sequence(chaos_plan(shape, seed=7), 400)
        second = _fault_sequence(chaos_plan(shape, seed=7), 400)
        assert first == second

    def test_different_seeds_differ(self):
        first = _fault_sequence(chaos_plan("bursty", seed=1), 400)
        second = _fault_sequence(chaos_plan("bursty", seed=2), 400)
        assert first != second

    def test_quiet_phase_injects_nothing(self):
        """With quiet_rate=0 every injected fault lands inside a burst."""
        plan = chaos_plan("bursty", seed=5, rate=0.5,
                          burst_every=100, burst_length=20, quiet_rate=0.0)
        _fault_sequence(plan, 1000)
        assert plan.fault_log  # the bursts did fire
        for event in plan.fault_log:
            assert (event.send_index - 1) % 100 < 20

    def test_profileless_plan_is_plain_fault_plan(self):
        plan = ScheduledFaultPlan(seed=1, corrupt_rate=0.2)
        assert plan.profile is None
        _fault_sequence(plan, 100)  # must not crash


class TestRunSoak:
    @pytest.fixture(scope="class")
    def soak(self):
        return run_soak(profile="short")

    def test_matrix_dimensions(self, soak):
        assert DEFAULT_SHAPES == ("bursty", "periodic", "degrading")
        assert DEFAULT_SEEDS == (1, 2, 3)
        assert [(r.shape, r.seed) for r in soak.rows] == [
            (shape, seed) for shape in DEFAULT_SHAPES for seed in DEFAULT_SEEDS
        ]

    def test_every_cell_consistent(self, soak):
        """The soak invariant: every healthy file completes, every
        pathological file is reported — nothing vanishes."""
        assert soak.all_cells_consistent, soak.render()
        for row in soak.rows:
            assert row.files_synced + row.files_failed == row.files_changed
            assert len(row.failed_names) == row.files_failed

    def test_hostile_cells_report_adaptive_activity(self, soak):
        assert any(row.retries > 0 for row in soak.rows)
        assert any(row.health_score < 1.0 for row in soak.rows)
        assert any(row.faults_injected > 0 for row in soak.rows)

    def test_render(self, soak):
        text = soak.render()
        assert "chaos soak [short]" in text
        assert "every healthy file synced" in text
        assert len(text.splitlines()) == 3 + len(soak.rows) + 1

    def test_deterministic_across_runs(self):
        first = run_soak(shapes=("periodic",), seeds=(3,), profile="short")
        second = run_soak(shapes=("periodic",), seeds=(3,), profile="short")
        strip = lambda row: {
            k: v for k, v in vars(row).items() if k != "elapsed_seconds"
        }
        assert [strip(r) for r in first.rows] == [
            strip(r) for r in second.rows
        ]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_soak(profile="marathon")


class TestPipelinedChaosCells:
    """The soak matrix's cells through the pipelined scheduler: eight
    files in flight share the chaotic link, each under the adaptive
    supervisor, and still no healthy file is lost."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["bursty", "periodic", "degrading"])
    def test_cell_loses_no_healthy_file(self, shape, seed):
        from repro.bench.methods import OursMethod
        from repro.collection import sync_collection
        from repro.resilience import SyncSupervisor
        from repro.workloads import gcc_like

        scale, rate, deadline_s = SOAK_PROFILES["short"]
        tree = gcc_like(scale=scale, seed=100 + seed)

        def cell():
            return sync_collection(
                tree.old,
                tree.new,
                SyncSupervisor(
                    OursMethod(),
                    retry=AdaptiveRetryPolicy(),
                    fault_plan=chaos_plan(shape, seed=seed, rate=rate),
                    breakers=BreakerBoard(failure_threshold=3),
                    deadline_s=deadline_s,
                ),
                on_error="skip",
                pipeline=True,
                window=8,
            )

        report = cell()
        assert set(report.per_file) == set(report.diff.changed)
        for name, data in tree.new.items():
            if name not in report.failed:
                assert report.reconstructed[name] == data, name
        again = cell()
        assert again.per_file == report.per_file
        assert again.failed == report.failed
        assert again.retries == report.retries
        assert again.fallbacks == report.fallbacks
        assert again.roundtrips_on_wire == report.roundtrips_on_wire


class BreakerMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of attempts, failures, successes and
    clock advances must never drive a breaker into an illegal state."""

    def __init__(self):
        super().__init__()
        self.breaker = CircuitBreaker(
            failure_threshold=3, cooldown_s=10.0,
            cooldown_multiplier=2.0, max_cooldown_s=100.0,
        )
        self.clock = 0.0
        self.admitted = True

    @rule(seconds=st.floats(min_value=0.0, max_value=50.0,
                            allow_nan=False))
    def advance(self, seconds):
        self.clock += seconds

    @rule()
    def attempt(self):
        self.admitted = self.breaker.allow(self.clock)

    @rule()
    def fail(self):
        if self.admitted:
            self.breaker.record_failure(self.clock)

    @rule()
    def succeed(self):
        if self.admitted:
            self.breaker.record_success(self.clock)
            assert self.breaker.state == BreakerState.CLOSED

    @invariant()
    def state_is_legal(self):
        assert self.breaker.state in (
            BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN
        )
        assert self.breaker.consecutive_failures >= 0
        assert self.breaker.opens >= 0
        assert (
            self.breaker.cooldown_s
            <= self.breaker._current_cooldown
            <= self.breaker.max_cooldown_s
        )

    @invariant()
    def closed_means_under_threshold_since_trip(self):
        if self.breaker.state == BreakerState.CLOSED:
            # A closed breaker either never reached the threshold or was
            # reset by a success; it can never sit at/above it.
            assert (
                self.breaker.consecutive_failures
                < self.breaker.failure_threshold
            )


BreakerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestBreakerStateMachine = BreakerMachine.TestCase
