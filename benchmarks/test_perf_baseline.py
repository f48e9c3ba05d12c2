"""Perf-regression gate: current timings vs the five committed baselines
(BENCH_parallel.json, BENCH_delta.json, BENCH_protocol.json,
BENCH_pipeline.json, BENCH_reuse.json).

Runs the same measurements that produced the committed baselines (see
``perfbaseline.py`` beside this file) and fails if any op has slowed past
the tolerance, if a ratio floor no longer holds (vectorized over scalar
delta matching, pipelined over sequential link wall clock, warm over
cold fleet serving), or if a deterministic record (modelled pipeline
wall clock, fleet wire bytes) no longer reproduces exactly.  The core
protocol has a single engine, so its record is one absolute op checked
against the tolerance only.

Each measurement is also written to
``benchmarks/results/BENCH_*.current.json``; to re-record a baseline,
copy that file over the committed one at the repo root.

Environment knobs (CI machines differ from the reference box):

* ``REPRO_PERF_WORKERS``     executor workers (default 4)
* ``REPRO_PERF_TOLERANCE``   allowed slowdown fraction vs the committed
  baseline (default 2.0, i.e. 3x budget — generous for shared runners)
* ``REPRO_PERF_MIN_DELTA_SPEEDUP`` vectorized-over-scalar delta floor
  for the *current* machine (default 1.5; the committed baseline itself
  must show >= 3.0)
* ``REPRO_PERF_MIN_PIPELINE_SPEEDUP`` pipelined-over-sequential link
  wall-clock floor (default 4.0 — the measurement is simulated and
  machine-independent, so current and committed use the same floor)
* ``REPRO_PERF_MIN_REUSE_SPEEDUP`` warm-over-cold Nth-client serve
  floor for the *current* machine (default 5.0; the committed baseline
  itself must show >= 5.0 too — the ISSUE 10 acceptance floor)
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import publish
from perfbaseline import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_DELTA_BASELINE_NAME,
    DEFAULT_PIPELINE_BASELINE_NAME,
    DEFAULT_PROTOCOL_BASELINE_NAME,
    DEFAULT_REUSE_BASELINE_NAME,
    compare_baselines,
    load_baseline,
    measure,
    measure_delta,
    measure_pipeline,
    measure_protocol,
    measure_reuse,
    render_baseline,
    save_baseline,
)

REPO_ROOT = Path(__file__).parent.parent
BASELINE_PATH = REPO_ROOT / DEFAULT_BASELINE_NAME
DELTA_BASELINE_PATH = REPO_ROOT / DEFAULT_DELTA_BASELINE_NAME
PROTOCOL_BASELINE_PATH = REPO_ROOT / DEFAULT_PROTOCOL_BASELINE_NAME
PIPELINE_BASELINE_PATH = REPO_ROOT / DEFAULT_PIPELINE_BASELINE_NAME
REUSE_BASELINE_PATH = REPO_ROOT / DEFAULT_REUSE_BASELINE_NAME

WORKERS = int(os.environ.get("REPRO_PERF_WORKERS", "4"))
TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "2.0"))
MIN_DELTA_SPEEDUP = float(
    os.environ.get("REPRO_PERF_MIN_DELTA_SPEEDUP", "1.5")
)
MIN_PIPELINE_SPEEDUP = float(
    os.environ.get("REPRO_PERF_MIN_PIPELINE_SPEEDUP", "4.0")
)
MIN_REUSE_SPEEDUP = float(
    os.environ.get("REPRO_PERF_MIN_REUSE_SPEEDUP", "5.0")
)

#: The committed delta baseline must demonstrate this vectorized-over-
#: scalar matching speedup (the ISSUE 5 acceptance floor).
COMMITTED_DELTA_SPEEDUP_FLOOR = 3.0

#: The committed pipeline baseline must demonstrate this pipelined-over-
#: sequential link wall-clock speedup (the ISSUE 9 acceptance floor).
COMMITTED_PIPELINE_SPEEDUP_FLOOR = 4.0

#: The committed reuse baseline must demonstrate this warm-over-cold
#: Nth-client serve speedup (the ISSUE 10 acceptance floor).
COMMITTED_REUSE_SPEEDUP_FLOOR = 5.0


@pytest.fixture(scope="module")
def committed():
    if not BASELINE_PATH.exists():
        pytest.fail(f"missing committed baseline {BASELINE_PATH}")
    return load_baseline(BASELINE_PATH)


@pytest.fixture(scope="module")
def current():
    baseline = measure(workers=WORKERS)
    # Persist this machine's numbers for the CI artifact.
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    save_baseline(baseline, results_dir / "BENCH_parallel.current.json")
    return baseline


def test_no_op_regressed_past_tolerance(current, committed):
    publish("perf_baseline", render_baseline(current))
    findings = compare_baselines(current, committed, tolerance=TOLERANCE)
    assert not findings, "\n".join(findings)


# ----------------------------------------------------------------------
# Delta-encode throughput gate (BENCH_delta.json)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed_delta():
    if not DELTA_BASELINE_PATH.exists():
        pytest.fail(f"missing committed baseline {DELTA_BASELINE_PATH}")
    return load_baseline(DELTA_BASELINE_PATH)


@pytest.fixture(scope="module")
def current_delta():
    baseline = measure_delta()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    save_baseline(baseline, results_dir / "BENCH_delta.current.json")
    return baseline


def test_committed_delta_baseline_demonstrates_speedup(committed_delta):
    """The checked-in trajectory point must show the >= 3x matching win."""
    assert committed_delta.delta_speedup >= COMMITTED_DELTA_SPEEDUP_FLOOR, (
        f"committed BENCH_delta.json records delta speedup "
        f"{committed_delta.delta_speedup:.2f}x < "
        f"{COMMITTED_DELTA_SPEEDUP_FLOOR}x"
    )
    for op in ("delta_index_build", "delta_match_vectorized",
               "delta_match_scalar"):
        assert op in committed_delta.ops, f"committed baseline missing {op}"


def test_no_delta_op_regressed_past_tolerance(current_delta, committed_delta):
    publish("perf_baseline_delta", render_baseline(current_delta))
    findings = compare_baselines(
        current_delta, committed_delta, tolerance=TOLERANCE
    )
    assert not findings, "\n".join(findings)


def test_vectorized_matching_still_faster_than_scalar(current_delta):
    """The batched engine must keep beating the oracle on this machine."""
    assert current_delta.delta_speedup >= MIN_DELTA_SPEEDUP, (
        f"vectorized delta speedup {current_delta.delta_speedup:.2f}x fell "
        f"below the {MIN_DELTA_SPEEDUP}x floor on this machine"
    )


# ----------------------------------------------------------------------
# Core protocol throughput gate (BENCH_protocol.json)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed_protocol():
    if not PROTOCOL_BASELINE_PATH.exists():
        pytest.fail(f"missing committed baseline {PROTOCOL_BASELINE_PATH}")
    return load_baseline(PROTOCOL_BASELINE_PATH)


@pytest.fixture(scope="module")
def current_protocol():
    baseline = measure_protocol()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    save_baseline(baseline, results_dir / "BENCH_protocol.current.json")
    return baseline


def test_committed_protocol_baseline_has_op(committed_protocol):
    assert "protocol_sync_vectorized" in committed_protocol.ops, (
        "committed baseline missing protocol_sync_vectorized"
    )


def test_no_protocol_op_regressed_past_tolerance(
    current_protocol, committed_protocol
):
    publish("perf_baseline_protocol", render_baseline(current_protocol))
    findings = compare_baselines(
        current_protocol, committed_protocol, tolerance=TOLERANCE
    )
    assert not findings, "\n".join(findings)


# ----------------------------------------------------------------------
# Pipelined-scheduler latency gate (BENCH_pipeline.json)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed_pipeline():
    if not PIPELINE_BASELINE_PATH.exists():
        pytest.fail(f"missing committed baseline {PIPELINE_BASELINE_PATH}")
    return load_baseline(PIPELINE_BASELINE_PATH)


@pytest.fixture(scope="module")
def current_pipeline():
    baseline = measure_pipeline()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    save_baseline(baseline, results_dir / "BENCH_pipeline.current.json")
    return baseline


def test_committed_pipeline_baseline_demonstrates_speedup(committed_pipeline):
    """The checked-in trajectory point must show the >= 4x latency win."""
    assert (
        committed_pipeline.pipeline_speedup >= COMMITTED_PIPELINE_SPEEDUP_FLOOR
    ), (
        f"committed BENCH_pipeline.json records pipeline speedup "
        f"{committed_pipeline.pipeline_speedup:.2f}x < "
        f"{COMMITTED_PIPELINE_SPEEDUP_FLOOR}x"
    )
    for op in ("collection_sequential", "collection_pipelined"):
        assert op in committed_pipeline.ops, (
            f"committed baseline missing {op}"
        )


def test_pipeline_measurement_is_reproducible(current_pipeline,
                                              committed_pipeline):
    """Modelled wall clocks are machine-independent: the current run must
    reproduce the committed numbers exactly, not merely within tolerance."""
    publish("perf_baseline_pipeline", render_baseline(current_pipeline))
    for name, committed_op in committed_pipeline.ops.items():
        current_op = current_pipeline.ops.get(name)
        assert current_op is not None, f"current measurement missing {name}"
        assert current_op.rounds == committed_op.rounds, (
            f"{name}: {current_op.rounds} wire roundtrips != committed "
            f"{committed_op.rounds}"
        )
        assert abs(current_op.seconds - committed_op.seconds) < 1e-3, (
            f"{name}: modelled {current_op.seconds:.4f}s != committed "
            f"{committed_op.seconds:.4f}s"
        )


def test_pipelined_wall_clock_beats_sequential(current_pipeline):
    """The pipelined scheduler must hide >= 4x of the link wall clock."""
    assert current_pipeline.pipeline_speedup >= MIN_PIPELINE_SPEEDUP, (
        f"pipeline speedup {current_pipeline.pipeline_speedup:.2f}x fell "
        f"below the {MIN_PIPELINE_SPEEDUP}x floor"
    )


# ----------------------------------------------------------------------
# Cross-file reuse gate (BENCH_reuse.json)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed_reuse():
    if not REUSE_BASELINE_PATH.exists():
        pytest.fail(f"missing committed baseline {REUSE_BASELINE_PATH}")
    return load_baseline(REUSE_BASELINE_PATH)


@pytest.fixture(scope="module")
def current_reuse():
    baseline = measure_reuse()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    save_baseline(baseline, results_dir / "BENCH_reuse.current.json")
    return baseline


def test_committed_reuse_baseline_demonstrates_speedup(committed_reuse):
    """The checked-in trajectory point must show the >= 5x memo win."""
    assert committed_reuse.reuse_speedup >= COMMITTED_REUSE_SPEEDUP_FLOOR, (
        f"committed BENCH_reuse.json records reuse speedup "
        f"{committed_reuse.reuse_speedup:.2f}x < "
        f"{COMMITTED_REUSE_SPEEDUP_FLOOR}x"
    )
    for op in ("broadcast_cold_client", "broadcast_warm_client",
               "broadcast_wire_sibling", "broadcast_wire_full"):
        assert op in committed_reuse.ops, f"committed baseline missing {op}"


def test_committed_reuse_baseline_shows_sibling_savings(committed_reuse):
    """Sibling references must save measurable fleet wire bytes."""
    assert committed_reuse.sibling_wire_savings > 0.0, (
        "committed BENCH_reuse.json records no sibling wire savings"
    )


def test_no_reuse_op_regressed_past_tolerance(current_reuse, committed_reuse):
    publish("perf_baseline_reuse", render_baseline(current_reuse))
    findings = compare_baselines(
        current_reuse, committed_reuse, tolerance=TOLERANCE
    )
    assert not findings, "\n".join(findings)


def test_warm_serve_still_faster_than_cold(current_reuse):
    """The Nth-client memo speedup must hold on this machine."""
    assert current_reuse.reuse_speedup >= MIN_REUSE_SPEEDUP, (
        f"reuse memo speedup {current_reuse.reuse_speedup:.2f}x fell "
        f"below the {MIN_REUSE_SPEEDUP}x floor on this machine"
    )


def test_sibling_wire_savings_reproducible(current_reuse, committed_reuse):
    """Wire bytes are deterministic: the current run must reproduce the
    committed byte counts exactly, not merely within tolerance."""
    for name in ("broadcast_wire_sibling", "broadcast_wire_full"):
        assert current_reuse.ops[name].payload_bytes == (
            committed_reuse.ops[name].payload_bytes
        ), (
            f"{name}: {current_reuse.ops[name].payload_bytes} wire bytes "
            f"!= committed {committed_reuse.ops[name].payload_bytes}"
        )
