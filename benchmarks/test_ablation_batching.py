"""Extension ablation — roundtrip amortization across a collection.

"As in rsync itself, the roundtrip latencies are not incurred for each
file since many files can be processed simultaneously.  Thus, for large
collections additional roundtrips are not a problem."  A pipelined
window holding every changed file runs them all in lockstep, so the
whole collection pays roughly one latency budget; this table quantifies
the claim on the web workload.
"""

from __future__ import annotations

from conftest import publish

from repro.bench import OursMethod, format_kb, render_table
from repro.collection import sync_collection
from repro.core import synchronize
from repro.net import LinkModel, SimulatedChannel

#: Roundtrips the retired lockstep batch mode needed on this input.
LOCKSTEP_ROUNDTRIPS = 83


def test_ablation_batching(benchmark, web_collection):
    base = web_collection.snapshot(0)
    target = web_collection.snapshot(2)
    changed = {
        name: base[name]
        for name in base
        if base[name] != target[name]
    }
    link = LinkModel(bandwidth_bps=1_000_000, latency_s=0.05)

    # Per-file: every file pays its own roundtrips.
    per_file_bytes = 0
    per_file_roundtrips = 0
    for name in sorted(changed):
        channel = SimulatedChannel(link)
        result = synchronize(base[name], target[name], channel=channel)
        assert result.reconstructed == target[name]
        per_file_bytes += result.total_bytes
        per_file_roundtrips += channel.stats.roundtrips

    # Batched: one window holding every changed file.
    def full_window():
        return sync_collection(
            base, target, OursMethod(), link=link,
            pipeline=True, window=len(changed),
        )

    batch = full_window()
    assert all(batch.reconstructed[n] == target[n] for n in changed)
    batch_bytes = batch.changed_transfer_bytes
    batch_roundtrips = batch.roundtrips_on_wire

    # The shared link also carries the batches' mux headers, which no
    # per-file payload bucket counts; the time estimate charges them.
    mux_bytes = batch.mux_overhead_bytes
    per_file_s = link.transfer_seconds(0, per_file_bytes, per_file_roundtrips)
    batch_s = link.transfer_seconds(0, batch_bytes + mux_bytes, batch_roundtrips)
    rows = [
        [
            "per-file",
            format_kb(per_file_bytes),
            format_kb(0),
            per_file_roundtrips,
            f"{per_file_s:.1f}",
        ],
        [
            "batched",
            format_kb(batch_bytes),
            format_kb(mux_bytes),
            batch_roundtrips,
            f"{batch_s:.1f}",
        ],
    ]
    publish(
        "ablation_batching",
        render_table(
            ["mode", "KB", "mux KB", "roundtrips", "est. seconds (dsl)"],
            rows,
            title=(
                f"Ablation — roundtrip amortization "
                f"({len(changed)} changed pages, 2-day gap)"
            ),
        ),
    )

    assert batch_roundtrips < per_file_roundtrips / 3
    assert batch_bytes <= per_file_bytes * 1.05
    assert batch_roundtrips <= LOCKSTEP_ROUNDTRIPS

    benchmark.extra_info["batched_roundtrips"] = batch_roundtrips
    benchmark.extra_info["per_file_roundtrips"] = per_file_roundtrips
    benchmark.pedantic(full_window, iterations=1, rounds=1)
