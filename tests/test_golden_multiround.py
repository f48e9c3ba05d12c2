"""Golden transcripts of the multiround rsync baseline.

``tests/data/golden_multiround.json`` pins two things.

``cases``: for a seeded corpus of file pairs and configurations,
everything :func:`~repro.multiround.multiround_rsync_sync` puts on the
wire or on disk, in the shape of ``golden_core.json``:

* the sha256 of the channel transcript (direction, phase, bits, round
  and payload of every message, in send order);
* the per-phase byte breakdown, the roundtrips and the round count;
* the sha256 of every round checkpoint payload;
* the sha256 of the reconstruction.

``outcomes``: resilience observables of supervised and pipelined
multiround runs under fixed fault schedules (retry counts, failure
histories, per-file outcomes, link figures).  Other test modules compare
their runs against these entries.

Any refactor of the multiround session must reproduce both byte for
byte.  Regenerate the file (only when the wire format changes on
purpose) with::

    PYTHONPATH=src python -m tests.test_golden_multiround
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.methods import MultiroundRsyncMethod
from repro.collection import sync_collection
from repro.exceptions import SyncFailedError
from repro.multiround import MultiroundConfig, multiround_rsync_sync
from repro.net import FaultPlan
from repro.net.channel import SimulatedChannel
from repro.net.faults import CollisionFaultPlan, FaultKind
from repro.resilience import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    RetryPolicy,
    SyncSupervisor,
)
from repro.workloads import gcc_like, make_binary_pair, make_log_pair
from tests.conftest import make_version_pair
from tests.test_golden_core import (
    _CheckpointDigests,
    _churn_pair,
    _edited,
    _gcc_pairs,
    _random_bytes,
    _web_pair,
    transcript_digest,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_multiround.json"


def corpus() -> dict[str, tuple[bytes, bytes, MultiroundConfig | None]]:
    """Every golden protocol case: ``name -> (old, new, config)``."""
    cases: dict[str, tuple[bytes, bytes, MultiroundConfig | None]] = {}

    for seed, nbytes, edits in (
        (1601, 16000, 8),
        (1610, 3000, 2),
        (1611, 24000, 13),
        (1612, 9000, 5),
        (1613, 700, 1),
    ):
        old, new = make_version_pair(seed=seed, nbytes=nbytes, edits=edits)
        cases[f"version-{seed}"] = (old, new, None)

    log = make_log_pair(seed=3, base_lines=300, appended_lines=40,
                        rotate_fraction=0.1)
    cases["workload-log"] = (log.old, log.new, None)
    blob = make_binary_pair(seed=2, size=30000, patch_count=4, patch_size=500)
    cases["workload-binary"] = (blob.old, blob.new, None)
    for name, old, new in _gcc_pairs():
        cases[f"workload-gcc-{name}"] = (old, new, None)
    cases["workload-web"] = (*_web_pair(), None)
    for seed in (1, 2):
        cases[f"workload-churn-{seed}"] = (*_churn_pair(seed, 24 * 1024), None)

    text = make_version_pair(seed=1700, nbytes=5000, edits=3)[0]
    cases["edge-both-empty"] = (b"", b"", None)
    cases["edge-empty-old"] = (b"", text[:2000], None)
    cases["edge-empty-new"] = (text[:2000], b"", None)
    cases["edge-identical"] = (text, text, None)
    cases["edge-one-byte"] = (b"a", b"b", None)
    cases["edge-one-byte-same"] = (b"a", b"a", None)
    for size in (63, 65, 1023, 1025, 4095, 4097):
        old = _random_bytes(size, size)
        cases[f"edge-length-{size}"] = (old, _edited(size, old), None)

    old, new = make_version_pair(seed=1701, nbytes=14000, edits=8)
    cells = {
        "small-blocks": MultiroundConfig(start_block_size=256,
                                         min_block_size=16),
        "hash-bits-8": MultiroundConfig(hash_bits=8),
        "hash-bits-16": MultiroundConfig(hash_bits=16),
        "no-repair": MultiroundConfig(hash_bits=8, repair=False),
        "max-rounds": MultiroundConfig(max_rounds=6),
    }
    for name, config in cells.items():
        cases[f"config-{name}"] = (old, new, config)
    return cases


def fixture_for(old: bytes, new: bytes, config, channel=None) -> dict:
    """Run one case and summarise everything the golden file pins."""
    if channel is None:
        channel = SimulatedChannel()
    channel.recorder = []
    checkpoints = _CheckpointDigests()
    result = multiround_rsync_sync(
        old, new, config, channel, checkpointer=checkpoints
    )
    assert result.reconstructed == new
    return {
        "transcript_sha256": transcript_digest(channel.recorder),
        "messages": len(channel.recorder),
        "breakdown": result.stats.breakdown(),
        "roundtrips": result.stats.roundtrips,
        "rounds": result.rounds,
        "used_fallback": result.used_fallback,
        "collisions_detected": result.collisions_detected,
        "repaired": result.repaired,
        "repair_rounds": result.repair_rounds,
        "repair_bytes": result.repair_bytes,
        "checkpoint_sha256": checkpoints.digests,
        "reconstruction_sha256": hashlib.sha256(
            result.reconstructed
        ).hexdigest(),
    }


def collision_fixture() -> dict:
    """The forced-collision case: one delta rewritten, repaired in place."""
    old, new = make_version_pair(seed=83, nbytes=60_000)
    plan = CollisionFaultPlan(seed=6)
    fixture = fixture_for(old, new, None, channel=plan.channel())
    assert plan.injected[FaultKind.COLLIDE] == 1
    return fixture


# ----------------------------------------------------------------------
# Resilience observables of supervised / pipelined multiround runs
# ----------------------------------------------------------------------
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


def outcome_fingerprint(outcome) -> dict:
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


def supervised_outcome(scenario: str, adaptive: bool) -> dict:
    """One supervised multiround file sync under a fixed fault plan."""
    retry = (
        AdaptiveRetryPolicy(max_attempts=3)
        if adaptive
        else RetryPolicy(max_attempts=3)
    )
    supervisor = SyncSupervisor(MultiroundRsyncMethod(), retry=retry,
                                fault_plan=SCENARIOS[scenario]())
    old, new = make_version_pair(seed=501, nbytes=12000, edits=6)
    return outcome_fingerprint(supervisor.sync_file(old, new))


def failure_history() -> dict:
    """Every rung dies: the attempt count and the failure history."""
    old, new = make_version_pair(seed=502, nbytes=4000, edits=3)
    supervisor = SyncSupervisor(
        MultiroundRsyncMethod(),
        retry=RetryPolicy(max_attempts=2),
        fault_plan=FaultPlan(seed=4, corrupt_rate=1.0),
    )
    with pytest.raises(SyncFailedError) as info:
        supervisor.sync_file(old, new)
    return {"attempts": info.value.attempts,
            "history": list(info.value.history)}


def collection_outcome(adaptive: bool) -> dict:
    """A gcc-like collection synced through faults with fallback."""
    tree = gcc_like(scale=0.05, seed=25)
    supervisor = SyncSupervisor(
        MultiroundRsyncMethod(),
        retry=AdaptiveRetryPolicy() if adaptive else None,
        fault_plan=FaultPlan.uniform(0.08, seed=44),
    )
    report = sync_collection(
        tree.old, tree.new, supervisor, on_error="fallback"
    )
    assert report.reconstructed == tree.new
    return {
        "summary": report.summary(),
        "retries": dict(report.retries),
        "fallbacks": sorted(report.fallbacks),
        "per_file": {
            name: outcome_fingerprint(outcome)
            for name, outcome in sorted(report.per_file.items())
        },
    }


def pipelined_outcome() -> dict:
    """Four files pipelined four at a time over the slow link."""
    from tests.test_pipeline_parity import LINK, make_collection

    old_side, new_side = make_collection(count=4)
    report = sync_collection(
        old_side, new_side, MultiroundRsyncMethod(), link=LINK,
        pipeline=True, window=4,
    )
    assert report.reconstructed == new_side
    return {
        "per_file": {
            name: dataclasses.asdict(outcome)
            for name, outcome in sorted(report.per_file.items())
        },
        "roundtrips_on_wire": report.roundtrips_on_wire,
        "link_wall_clock_s": report.link_wall_clock_s,
        "waves": report.waves,
        "mux_overhead_bytes": report.mux_overhead_bytes,
    }


def adaptive_clean_summary() -> list:
    """Clean gcc-like collection: adaptive retry changes nothing."""
    tree = gcc_like(scale=0.05, seed=23)
    plain = sync_collection(tree.old, tree.new, MultiroundRsyncMethod())
    supervisor = SyncSupervisor(
        MultiroundRsyncMethod(),
        retry=AdaptiveRetryPolicy(),
        breakers=BreakerBoard(failure_threshold=3),
        deadline_s=3600.0,
    )
    adaptive = sync_collection(tree.old, tree.new, supervisor)
    assert adaptive.summary() == plain.summary()
    assert adaptive.health_score == 1.0
    return sorted(plain.summary().items())


def outcome_producers() -> dict:
    """Every pinned observable: ``name -> zero-argument producer``."""
    producers = {}
    for scenario in SCENARIOS:
        for adaptive in (False, True):
            mode = "adaptive" if adaptive else "static"
            producers[f"supervised/{scenario}/{mode}"] = (
                lambda s=scenario, a=adaptive: supervised_outcome(s, a)
            )
    producers["supervised/all rungs die"] = failure_history
    for adaptive in (False, True):
        mode = "adaptive" if adaptive else "static"
        producers[f"collection/{mode}"] = (
            lambda a=adaptive: collection_outcome(a)
        )
    producers["pipelined/window-4"] = pipelined_outcome
    producers["adaptive/clean-summary"] = adaptive_clean_summary
    return producers


def golden_outcome(name: str):
    """The recorded value of one pinned observable (JSON-normalised)."""
    return _golden()["outcomes"][name]


def as_json(value):
    """``value`` as it reads back from the golden file."""
    return json.loads(json.dumps(value))


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


CASES = corpus()


def test_corpus_matches_golden_keys():
    golden = _golden()
    assert sorted([*CASES, "forced-collision"]) == sorted(golden["cases"])
    assert sorted(outcome_producers()) == sorted(golden["outcomes"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_reproduces_golden(case):
    old, new, config = CASES[case]
    assert as_json(fixture_for(old, new, config)) == _golden()["cases"][case]


def test_forced_collision_reproduces_golden():
    golden = _golden()["cases"]["forced-collision"]
    assert golden["collisions_detected"] == 1 and golden["repaired"]
    assert not golden["used_fallback"]
    assert as_json(collision_fixture()) == golden


if __name__ == "__main__":
    cases = {
        name: fixture_for(old, new, config)
        for name, (old, new, config) in sorted(CASES.items())
    }
    cases["forced-collision"] = collision_fixture()
    outcomes = {
        name: produce() for name, produce in sorted(outcome_producers().items())
    }
    GOLDEN_PATH.write_text(
        json.dumps({"cases": cases, "outcomes": outcomes}, indent=1,
                   sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(cases)} cases and {len(outcomes)} outcomes to "
          f"{GOLDEN_PATH}")
