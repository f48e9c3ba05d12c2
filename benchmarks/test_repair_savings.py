"""Surgical repair vs full-transfer fallback: the recovery-byte gate.

The ISSUE's headline number: when a truncated-hash collision corrupts a
single block, the group-digest repair descent (DESIGN §15) must recover
the file with at least **4× fewer** bytes than the historical
NACK-plus-whole-file fallback, across every file of the seeded 64-file
workload.  The measured ratios are committed to ``BENCH_integrity.json``
— the artifact the CI ``integrity`` job uploads.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.conftest import publish
from perfbaseline import build_workload
from repro.bench import render_table
from repro.multiround.protocol import multiround_rsync_sync
from repro.net.faults import CollisionFaultPlan, FaultKind
from repro.rsync import rsync_sync

#: Committed baseline: per-protocol repair-vs-fallback savings.
INTEGRITY_BASELINE = Path(__file__).parent.parent / "BENCH_integrity.json"

#: The acceptance bar: surgical repair must beat the full-transfer
#: fallback by at least this factor on every single-block collision.
MIN_SAVINGS_RATIO = 4.0


def _measure(sync, old: bytes, new: bytes, seed: int) -> tuple[int, int]:
    """(repair bytes, fallback bytes) for one forced collision."""
    repaired_plan = CollisionFaultPlan(seed=seed)
    repaired = sync(old, new, channel=repaired_plan.channel())
    assert repaired_plan.injected[FaultKind.COLLIDE] == 1
    assert repaired.reconstructed == new
    assert repaired.repaired, "collision must be repaired, not fallen back"
    assert repaired.collisions_detected == 1

    fallback_plan = CollisionFaultPlan(seed=seed)
    fallback = sync(
        old, new, channel=fallback_plan.channel(), repair=False
    )
    assert fallback.reconstructed == new
    assert fallback.used_fallback
    # The doomed delta plus the whole-file rescue, as rebilled by the
    # retransmission satellite.
    return repaired.repair_bytes, fallback.stats.retransmitted_bytes


def _multiround(old, new, channel, repair=True):
    from repro.multiround.protocol import MultiroundConfig

    return multiround_rsync_sync(
        old, new, config=MultiroundConfig(repair=repair), channel=channel
    )


def test_repair_savings_on_single_block_collisions():
    old_side, new_side = build_workload()
    assert len(old_side) == 64

    protocols = {
        "rsync": lambda old, new, channel, repair=True: rsync_sync(
            old, new, channel=channel, repair=repair
        ),
        "multiround": lambda old, new, channel, repair=True: (
            _multiround(old, new, channel, repair=repair)
        ),
    }

    results: dict[str, dict[str, object]] = {}
    rows = []
    for label, sync in protocols.items():
        ratios = []
        repair_total = fallback_total = 0
        for index, name in enumerate(sorted(old_side)):
            repair_bytes, fallback_bytes = _measure(
                sync, old_side[name], new_side[name], seed=index
            )
            assert repair_bytes > 0
            ratios.append(fallback_bytes / repair_bytes)
            repair_total += repair_bytes
            fallback_total += fallback_bytes
        worst = min(ratios)
        results[label] = {
            "files": len(ratios),
            "repair_bytes_total": repair_total,
            "fallback_bytes_total": fallback_total,
            "ratio_min": round(worst, 2),
            "ratio_median": round(statistics.median(ratios), 2),
            "ratio_max": round(max(ratios), 2),
        }
        rows.append([
            label,
            str(len(ratios)),
            f"{repair_total:,}",
            f"{fallback_total:,}",
            f"{worst:.1f}x",
            f"{statistics.median(ratios):.1f}x",
        ])
        # The gate: every file, not just the average, clears the bar.
        assert worst >= MIN_SAVINGS_RATIO, (
            f"{label}: worst repair savings {worst:.2f}x is below the "
            f"{MIN_SAVINGS_RATIO}x acceptance bar"
        )

    publish(
        "repair_savings",
        render_table(
            ["protocol", "files", "repair B", "fallback B",
             "worst savings", "median savings"],
            rows,
            title=(
                "surgical repair vs full-transfer fallback — forced "
                "single-block collisions, 64-file seeded workload "
                f"(gate: >= {MIN_SAVINGS_RATIO}x everywhere)"
            ),
        ),
    )
    INTEGRITY_BASELINE.write_text(
        json.dumps(
            {
                "workload": "build_workload(files=64, file_kb=384, "
                            "seed=20240806)",
                "collision": "CollisionFaultPlan(seed=<file index>), "
                             "one forced collision per file",
                "min_savings_ratio_gate": MIN_SAVINGS_RATIO,
                "protocols": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
