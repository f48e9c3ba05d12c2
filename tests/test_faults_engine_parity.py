"""Fault-injection observables of the multiround protocol, pinned.

The multiround protocol once had two round engines, and these tests
checked that under a *fixed fault schedule* both produced the same
downstream resilience observables — retry counts, rung descent,
retransmission accounting, failure histories.  It now has one engine
(the array frontier); the values both engines produced were recorded
in ``tests/data/golden_multiround.json`` (``outcomes``) before the
second one was deleted, and each test reproduces them exactly.  Each
case supervises the multiround method as the primary rung with a fresh
same-seed fault plan (the plan is stateful).
"""

from __future__ import annotations

import pytest

from tests.test_golden_multiround import (
    SCENARIOS,
    as_json,
    collection_outcome,
    failure_history,
    golden_outcome,
    supervised_outcome,
)


class TestSupervisedFileParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIOS)
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["static", "adaptive"])
    def test_identical_outcomes_across_engines(self, scenario, adaptive):
        mode = "adaptive" if adaptive else "static"
        fingerprint = as_json(supervised_outcome(scenario, adaptive))
        assert fingerprint == golden_outcome(f"supervised/{scenario}/{mode}")
        assert fingerprint["correct"]

    def test_identical_failure_histories_when_all_rungs_die(self):
        captured = as_json(failure_history())
        assert captured == golden_outcome("supervised/all rungs die")
        assert captured["attempts"] == 6  # 3 rungs x 2 attempts


class TestCollectionParity:
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["static", "adaptive"])
    def test_identical_reports_across_engines(self, adaptive):
        mode = "adaptive" if adaptive else "static"
        assert as_json(collection_outcome(adaptive)) == golden_outcome(
            f"collection/{mode}"
        )
