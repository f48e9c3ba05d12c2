"""The adaptive method on a supervisor's channel and on the run's link.

``AdaptiveMethod`` has no session, so its traffic crosses whatever
channel it is handed (``sync_file_over``).  These tests pin that a
supervisor's fault plan reaches that traffic, and that the
configuration is chosen for the link of the run it is part of.
"""

from __future__ import annotations

from repro.bench.methods import AdaptiveMethod, OursMethod
from repro.collection.sync import sync_collection
from repro.core.adaptive import adaptive_synchronize
from repro.net import FaultPlan
from repro.net.channel import LinkModel, SimulatedChannel
from repro.resilience import SyncSupervisor
from tests.conftest import make_version_pair


def test_fault_plan_reaches_adaptive_traffic():
    old, new = make_version_pair(3)
    outcomes = {
        method.name: SyncSupervisor(
            method, fault_plan=FaultPlan.uniform(0.3, seed=1)
        ).sync_file(old, new)
        for method in (AdaptiveMethod(), OursMethod())
    }
    assert outcomes["ours"].retries > 0
    adaptive = outcomes["ours-adaptive"]
    assert adaptive.correct
    assert adaptive.retries > 0
    assert adaptive.retransmitted_bytes > 0


def test_configuration_is_chosen_for_the_runs_link():
    old, new = make_version_pair(5)
    link = LinkModel(bandwidth_bps=50_000, latency_s=1.0)
    report = sync_collection(
        {"a": old}, {"a": new}, AdaptiveMethod(), link=link
    )
    outcome = report.per_file["a"]
    assert outcome.correct
    # The same probe and configuration on a channel of that link.
    alone, _config = adaptive_synchronize(
        old, new, channel=SimulatedChannel(link)
    )
    default, _config = adaptive_synchronize(old, new)
    assert alone.stats.roundtrips != default.stats.roundtrips
    assert outcome.roundtrips == alone.stats.roundtrips
