"""Cross-engine fault-injection parity: vectorized vs scalar multiround.

The multiround protocol's two round engines promise byte-identical wire
traffic, so under a *fixed fault schedule* every downstream resilience
observable — retry counts, rung descent, retransmission accounting,
failure histories — must be identical too.  Each case supervises the
multiround method as the primary rung, builds a fresh same-seed fault
plan per engine (the plan is stateful) and flips the engine via the
``REPRO_PROTOCOL_ENGINE`` environment default.  (The core protocol has
one engine; its wire bytes are pinned by ``tests/test_golden_core.py``.)
"""

from __future__ import annotations

import pytest

from repro.bench.methods import MultiroundRsyncMethod
from repro.collection import sync_collection
from repro.core.engine import ENGINE_ENV, ENGINES
from repro.exceptions import SyncFailedError
from repro.net import FaultPlan
from repro.resilience import AdaptiveRetryPolicy, RetryPolicy, SyncSupervisor
from repro.workloads import gcc_like
from tests.conftest import make_version_pair

SCENARIOS = {
    "corruption in map phase": lambda: FaultPlan(
        seed=31, corrupt_rate=0.2, phases=frozenset({"map"})
    ),
    "drops in delta phase": lambda: FaultPlan(
        seed=32, drop_rate=0.3, phases=frozenset({"delta"})
    ),
    "disconnect mid split": lambda: FaultPlan(seed=33,
                                              disconnect_after_sends=40),
    "uniform mix at 0.1": lambda: FaultPlan.uniform(0.1, seed=34),
}


def _outcome_fingerprint(outcome):
    return {
        "total_bytes": outcome.total_bytes,
        "breakdown": outcome.breakdown,
        "correct": outcome.correct,
        "retries": outcome.retries,
        "fallback_method": outcome.fallback_method,
        "retransmitted_bytes": outcome.retransmitted_bytes,
        "recovery_seconds": round(outcome.recovery_seconds, 6),
        "health_score": round(outcome.health_score, 6),
        "adaptive_backoff_s": round(outcome.adaptive_backoff_s, 6),
    }


def _supervised_fingerprint(monkeypatch, engine, make_plan, pair,
                            adaptive):
    monkeypatch.setenv(ENGINE_ENV, engine)
    retry = (
        AdaptiveRetryPolicy(max_attempts=3)
        if adaptive
        else RetryPolicy(max_attempts=3)
    )
    supervisor = SyncSupervisor(MultiroundRsyncMethod(), retry=retry,
                                fault_plan=make_plan())
    old, new = pair
    outcome = supervisor.sync_file(old, new)
    return _outcome_fingerprint(outcome)


class TestSupervisedFileParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIOS)
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["static", "adaptive"])
    def test_identical_outcomes_across_engines(self, monkeypatch,
                                               scenario, adaptive):
        pair = make_version_pair(seed=501, nbytes=12000, edits=6)
        make_plan = SCENARIOS[scenario]
        fingerprints = {
            engine: _supervised_fingerprint(
                monkeypatch, engine, make_plan, pair, adaptive
            )
            for engine in ENGINES
        }
        assert fingerprints["vectorized"] == fingerprints["scalar"]
        assert fingerprints["vectorized"]["correct"]

    def test_identical_failure_histories_when_all_rungs_die(
        self, monkeypatch
    ):
        old, new = make_version_pair(seed=502, nbytes=4000, edits=3)
        captured = {}
        for engine in ENGINES:
            monkeypatch.setenv(ENGINE_ENV, engine)
            supervisor = SyncSupervisor(
                MultiroundRsyncMethod(),
                retry=RetryPolicy(max_attempts=2),
                fault_plan=FaultPlan(seed=4, corrupt_rate=1.0),
            )
            with pytest.raises(SyncFailedError) as info:
                supervisor.sync_file(old, new)
            captured[engine] = (info.value.attempts, info.value.history)
        assert captured["vectorized"] == captured["scalar"]
        assert captured["vectorized"][0] == 6  # 3 rungs x 2 attempts


class TestCollectionParity:
    @pytest.fixture(scope="class")
    def tree(self):
        return gcc_like(scale=0.05, seed=25)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["static", "adaptive"])
    def test_identical_reports_across_engines(self, monkeypatch, tree,
                                              adaptive):
        reports = {}
        for engine in ENGINES:
            monkeypatch.setenv(ENGINE_ENV, engine)
            report = sync_collection(
                tree.old, tree.new, MultiroundRsyncMethod(),
                fault_plan=FaultPlan.uniform(0.08, seed=44),
                on_error="fallback",
                adaptive_retry=adaptive,
            )
            assert report.reconstructed == tree.new
            reports[engine] = (
                report.summary(),
                dict(report.retries),
                sorted(report.fallbacks),
                {
                    name: _outcome_fingerprint(outcome)
                    for name, outcome in report.per_file.items()
                },
            )
        assert reports["vectorized"] == reports["scalar"]
