"""Retransmission overhead vs. fault rate for the resilient supervisor.

Not a paper experiment — this measures the resilience layer itself: how
much extra wire traffic (failed-attempt retransmissions, fallback-ladder
descents) a given channel fault rate costs, on top of the clean-run
payload.  One row per fault rate; rows are published as a table and
exported to ``benchmarks/results/fault_overhead.csv`` like the
parallel-scaling benchmark's rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, publish
from repro.bench import OursMethod, render_table, run_method_on_collection
from repro.bench.export import export_runs, run_to_row
from repro.net import FaultPlan
from repro.net.chaos import chaos_plan
from repro.resilience import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    RetryPolicy,
    SyncSupervisor,
)
from repro.workloads import gcc_like, make_web_collection

FAULT_RATES = (0.0, 0.02, 0.05, 0.10)
SEED = 42

#: Committed baseline for the adaptive-vs-static comparison below.
RESILIENCE_BASELINE = Path(__file__).parent.parent / "BENCH_resilience.json"


def test_fault_overhead_vs_rate():
    collection = make_web_collection(page_count=30, days=(0, 1), seed=SEED)
    old, new = collection.snapshot(0), collection.snapshot(1)

    runs = []
    rows = []
    baseline_bytes = None
    for rate in FAULT_RATES:
        method = OursMethod()
        if rate:
            method = SyncSupervisor(
                method, fault_plan=FaultPlan.uniform(rate, seed=SEED)
            )
        run = run_method_on_collection(method, old, new, on_error="fallback")
        assert run.failed_files == 0
        if baseline_bytes is None:
            baseline_bytes = run.total_bytes
            assert run.retries == 0
            assert run.retransmitted_bytes == 0
        wire_total = run.total_bytes + run.retransmitted_bytes
        overhead = wire_total / baseline_bytes - 1.0
        runs.append(run)
        rows.append([
            f"{rate:.2f}",
            f"{run.total_bytes:,}",
            f"{run.retransmitted_bytes:,}",
            f"{overhead:+.1%}",
            str(run.retries),
            str(run.fallback_files),
            f"{run.recovery_seconds:.1f}",
        ])

    publish(
        "fault_overhead",
        render_table(
            ["fault rate", "payload B", "retransmit B", "overhead",
             "retries", "fallbacks", "recovery s"],
            rows,
            title=(
                f"retransmission overhead vs. channel fault rate — "
                f"{len(new)} files, method=ours+supervisor, seed={SEED}"
            ),
        ),
    )
    export_runs(runs, RESULTS_DIR / "fault_overhead.csv")

    # Sanity: injected faults actually cost something at the top rate.
    assert runs[-1].retries > 0
    assert runs[-1].retransmitted_bytes > 0


def test_adaptive_vs_static_under_bursty_chaos():
    """The ISSUE's headline comparison: on a link with hostile fault
    bursts, the adaptive stack (AIMD backoff + per-file breakers +
    per-file deadlines) bounds what a pathological file may cost and
    *reports* it — the run returns even under ``on_error="raise"`` —
    while the static supervisor grinds every rung of every ladder:
    it either stalls past the deadline the adaptive run honours or
    wastes at least twice the retransmitted bytes."""
    deadline_s = 600.0
    tree = gcc_like(scale=0.08, seed=77)

    def bursty_plan():
        # Fresh same-seed plan per run: the schedule is identical, the
        # plan object is stateful.
        return chaos_plan("bursty", seed=9, rate=0.3)

    static = run_method_on_collection(
        SyncSupervisor(
            OursMethod(),
            retry=RetryPolicy(max_attempts=6),
            fault_plan=bursty_plan(),
        ),
        tree.old, tree.new,
        on_error="skip",
    )
    adaptive = run_method_on_collection(
        SyncSupervisor(
            OursMethod(),
            retry=AdaptiveRetryPolicy(),
            fault_plan=bursty_plan(),
            breakers=BreakerBoard(failure_threshold=3),
            deadline_s=deadline_s,
        ),
        tree.old, tree.new,
        on_error="raise",
    )

    # Graceful degradation: pathological files are *reported* — the call
    # above returned despite on_error="raise" — and every file the
    # breakers spared was completed and verified.
    assert adaptive.failed_files < adaptive.files_changed
    healthy = adaptive.files_changed - adaptive.failed_files
    assert healthy >= 1

    # The static baseline pays for its stubbornness, both ways here; the
    # acceptance bar is the disjunction.
    waste_ratio = static.retransmitted_bytes / max(
        1, adaptive.retransmitted_bytes
    )
    stalled = static.recovery_seconds > deadline_s
    assert stalled or waste_ratio >= 2.0

    rows = [
        [
            label,
            str(run.files_changed - run.failed_files),
            str(run.failed_files),
            str(run.retries),
            f"{run.retransmitted_bytes:,}",
            f"{run.recovery_seconds:.1f}",
            str(run.breaker_opens),
            f"{run.health_score:.2f}",
        ]
        for label, run in (("static", static), ("adaptive", adaptive))
    ]
    publish(
        "fault_adaptive_vs_static",
        render_table(
            ["policy", "synced", "failed", "retries", "retransmit B",
             "recovery s", "breaker opens", "health"],
            rows,
            title=(
                f"adaptive vs static under bursty chaos — "
                f"{adaptive.files_changed} changed files, rate=0.3, "
                f"deadline={deadline_s:.0f}s, "
                f"waste ratio {waste_ratio:.2f}x"
            ),
        ),
    )
    RESILIENCE_BASELINE.write_text(
        json.dumps(
            {
                "workload": "gcc_like(scale=0.08, seed=77)",
                "plan": "chaos_plan('bursty', seed=9, rate=0.3)",
                "deadline_s": deadline_s,
                "breaker_threshold": 3,
                "waste_ratio": round(waste_ratio, 4),
                "static_stalled_past_deadline": stalled,
                "static": run_to_row(static),
                "adaptive": run_to_row(adaptive),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
