"""Pipelined round scheduler: parity, mux framing, crash interchange.

The pipelined scheduler's whole contract is "same bytes, fewer
roundtrips": per-file outcomes, wire transcripts and round checkpoints
must be bit-identical to the sequential path — across protocol engines,
across executor substrates, and across a crash that switches scheduler
between the two runs.  Only the shared link's roundtrip count and the
modelled wall clock may change.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.methods import MultiroundRsyncMethod, OursMethod, RsyncMethod
from repro.collection import CollectionScheduler, RecordingChannel
from repro.collection.sync import sync_collection
from repro.exceptions import FrameCorruptionError
from repro.net import LinkModel
from repro.net.frame import (
    MuxSubframe,
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.parallel import arena_available
from repro.parallel.cache import (
    reset_default_cache,
    reset_default_reference_cache,
)
from repro.reuse.memo import reset_default_delta_memo
from tests.conftest import make_version_pair

SRC = Path(__file__).resolve().parent.parent / "src"

LINK = LinkModel(latency_s=0.150)


def make_collection(count=6, nbytes=9000, edits=6, seed=900):
    old_side, new_side = {}, {}
    for index in range(count):
        old, new = make_version_pair(
            seed=seed + index, nbytes=nbytes, edits=edits
        )
        old_side[f"f{index:02d}.bin"] = old
        new_side[f"f{index:02d}.bin"] = new
    return old_side, new_side


# ----------------------------------------------------------------------
# Mux sub-frame format
# ----------------------------------------------------------------------
class TestMuxFrame:
    def subframes(self):
        return [
            MuxSubframe(0, 3, 0, 8 * 5, b"hello"),
            # Bit-packed payload: 12 bits in 2 bytes (4 padding bits).
            MuxSubframe(7, 1, 0, 12, b"\xab\xc0"),
            MuxSubframe(130, 0, 2, 0, b""),
        ]

    def test_roundtrip(self):
        subframes = self.subframes()
        batch = encode_mux_batch(subframes)
        assert decode_mux_batch(batch) == subframes
        overhead = mux_overhead_bytes(batch, subframes)
        assert overhead == len(batch) - 7
        assert overhead > 0

    def test_empty_batch(self):
        assert decode_mux_batch(encode_mux_batch([])) == []

    def test_truncation_raises(self):
        batch = encode_mux_batch(self.subframes())
        for cut in (1, len(batch) // 2, len(batch) - 1):
            with pytest.raises(FrameCorruptionError):
                decode_mux_batch(batch[:cut])

    def test_trailing_bytes_raise(self):
        batch = encode_mux_batch(self.subframes())
        with pytest.raises(FrameCorruptionError):
            decode_mux_batch(batch + b"\x00")

    def test_encode_rejects_inconsistent_bit_length(self):
        with pytest.raises(ValueError):
            encode_mux_batch([MuxSubframe(0, 0, 0, 9, b"x")])
        with pytest.raises(ValueError):
            encode_mux_batch([MuxSubframe(0, 0, 0, 24, b"xy")])


# ----------------------------------------------------------------------
# LinkModel.transfer_seconds (vectorized/accumulating variant)
# ----------------------------------------------------------------------
class TestTransferSeconds:
    def test_scalar_matches_directional(self):
        link = LinkModel(bandwidth_bps=2e6, latency_s=0.1, uplink_bps=5e5)
        assert link.transfer_seconds(1000, 4000, 7) == pytest.approx(
            link.transfer_time_directional(1000, 4000, 7)
        )

    def test_vector_accumulates(self):
        link = LinkModel(bandwidth_bps=1e6, latency_s=0.05)
        ups, downs, trips = [100, 200, 300], [50, 0, 950], [2, 5, 0]
        expected = sum(
            link.transfer_time_directional(u, d, t)
            for u, d, t in zip(ups, downs, trips)
        )
        assert link.transfer_seconds(ups, downs, trips) == pytest.approx(
            expected
        )

    def test_negative_counters_rejected(self):
        link = LinkModel()
        with pytest.raises(ValueError, match="client_to_server_bytes"):
            link.transfer_seconds([-1], [0], [0])
        with pytest.raises(ValueError, match="server_to_client_bytes"):
            link.transfer_seconds(0, -5, 0)
        with pytest.raises(ValueError, match="roundtrips"):
            link.transfer_seconds([1, 2], [3, 4], [1, -1])


# ----------------------------------------------------------------------
# Pipelined vs sequential parity
# ----------------------------------------------------------------------
class TestPipelineParity:
    @pytest.mark.parametrize(
        "method_factory", [OursMethod, MultiroundRsyncMethod]
    )
    def test_outcomes_match_sequential(self, method_factory):
        old_side, new_side = make_collection()
        sequential = sync_collection(
            old_side, new_side, method_factory(), link=LINK
        )
        pipelined = sync_collection(
            old_side, new_side, method_factory(), link=LINK,
            pipeline=True, window=4,
        )
        assert pipelined.pipelined and not sequential.pipelined
        assert pipelined.reconstructed == new_side
        # Byte accounting is identical per file...
        assert pipelined.per_file == sequential.per_file
        # ...and only the shared link's latency accounting collapses.
        assert pipelined.roundtrips_on_wire < sequential.roundtrips_on_wire
        assert pipelined.link_wall_clock_s < sequential.link_wall_clock_s
        assert pipelined.waves > 0
        assert pipelined.mux_overhead_bytes > 0

    @pytest.mark.parametrize(
        "method_factory", [OursMethod, MultiroundRsyncMethod]
    )
    def test_transcripts_bit_identical_modulo_interleaving(
        self, method_factory
    ):
        """Each file's pipelined wire transcript equals its sequential one."""
        old_side, new_side = make_collection(count=4)
        scheduler = CollectionScheduler(method_factory(), window=3, link=LINK)
        run = scheduler.run(
            [(name, old_side[name], new_side[name]) for name in old_side]
        )
        for name in old_side:
            channel = RecordingChannel(LINK)
            session = method_factory().open_session(
                old_side[name], new_side[name]
            )
            session.start(channel)
            while not session.done:
                session.step_round(channel)
            session.finish(channel)
            assert run.transcripts[name] == channel.transcript, name

    def test_cross_engine_parity(self, monkeypatch):
        """Scalar and vectorized engines put identical bytes through the
        pipelined scheduler — wire figures included."""
        old_side, new_side = make_collection(count=4)
        reports = {}
        for engine in ("scalar", "vectorized"):
            monkeypatch.setenv("REPRO_PROTOCOL_ENGINE", engine)
            reports[engine] = sync_collection(
                old_side, new_side, OursMethod(), link=LINK,
                pipeline=True, window=4,
            )
        scalar, vectorized = reports["scalar"], reports["vectorized"]
        assert scalar.per_file == vectorized.per_file
        assert scalar.roundtrips_on_wire == vectorized.roundtrips_on_wire
        assert scalar.link_wall_clock_s == vectorized.link_wall_clock_s
        assert scalar.waves == vectorized.waves
        assert scalar.mux_overhead_bytes == vectorized.mux_overhead_bytes

    def test_cross_executor_parity(self):
        """Serial, pickle-pool and arena-pool sequential runs all agree
        with the pipelined outcomes — the scheduler changes scheduling,
        never bytes."""
        old_side, new_side = make_collection(count=4)
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            pipeline=True, window=4,
        )
        variants = [
            dict(workers=1),
            dict(workers=2, use_arena=False),
        ]
        if arena_available():
            variants.append(dict(workers=2, use_arena=True))
        for kwargs in variants:
            sequential = sync_collection(
                old_side, new_side, OursMethod(), link=LINK, **kwargs
            )
            assert sequential.per_file == pipelined.per_file, kwargs

    def test_checkpointed_outcomes_match_sequential(self, tmp_path):
        """Journalling under the scheduler mirrors the supervisor's
        accounting on a clean run."""
        old_side, new_side = make_collection(count=3)
        sequential = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            checkpoint_dir=tmp_path / "seq",
        )
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            checkpoint_dir=tmp_path / "pipe", pipeline=True, window=3,
        )
        assert pipelined.per_file == sequential.per_file
        assert pipelined.checkpoint_bytes_written > 0
        # Both runs committed every journal away.
        assert sorted((tmp_path / "seq").glob("*.ckpt")) == []
        assert sorted((tmp_path / "pipe").glob("*.ckpt")) == []

    def test_window_one_still_correct(self):
        old_side, new_side = make_collection(count=3)
        report = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            pipeline=True, window=1,
        )
        assert report.reconstructed == new_side

    def test_validation(self):
        old_side, new_side = make_collection(count=2)
        with pytest.raises(ValueError, match="does not support pipelined"):
            sync_collection(
                old_side, new_side, RsyncMethod(), pipeline=True
            )
        with pytest.raises(ValueError, match="window"):
            sync_collection(
                old_side, new_side, OursMethod(), pipeline=True, window=0
            )
        from repro.net.faults import FaultPlan

        with pytest.raises(ValueError, match="incompatible"):
            sync_collection(
                old_side, new_side, OursMethod(), pipeline=True,
                fault_plan=FaultPlan.uniform(0.01),
            )
        with pytest.raises(ValueError, match="incompatible"):
            sync_collection(
                old_side, new_side, OursMethod(), pipeline=True,
                deadline_s=5.0,
            )
        with pytest.raises(ValueError, match="on_error"):
            sync_collection(
                old_side, new_side, OursMethod(), pipeline=True,
                on_error="skip",
            )


def slow_link_subset(count=24):
    """The first ``count`` files of the benchmark's slow-link input, seed 1."""
    spec = importlib.util.spec_from_file_location(
        "perf_inputs", SRC.parent / "perf" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    old_side, new_side = inputs.slow_link(1)
    names = sorted(new_side)[:count]
    return (
        {name: old_side[name] for name in names},
        {name: new_side[name] for name in names},
    )


class TestPipelineCacheCounters:
    def test_pipelined_report_counts_the_same_cache_work(self):
        """Both schedulers run the same sessions, so from cold caches they
        do the same cache work — and both reports must say so."""
        old_side, new_side = slow_link_subset()
        caches = {}
        for label, options in (
            ("sequential", {}),
            ("pipelined", {"pipeline": True, "window": 8}),
        ):
            reset_default_cache()
            reset_default_reference_cache()
            reset_default_delta_memo()
            report = sync_collection(
                old_side, new_side, OursMethod(), link=LINK, **options
            )
            caches[label] = report.caches
        assert caches["pipelined"] == caches["sequential"]
        assert caches["pipelined"] == {
            "cache_hits": 151,
            "cache_misses": 199,
            "ref_cache_hits": 0,
            "ref_cache_misses": 24,
            "delta_memo_hits": 0,
            "delta_memo_misses": 0,
        }


# ----------------------------------------------------------------------
# Crash mid-wave, resume under the other scheduler
# ----------------------------------------------------------------------
def run_cli(*args, crash_env=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_CRASH")}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if crash_env:
        env.update(crash_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def crash_pair(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    new_side = {}
    for index, seed in enumerate([941, 942, 943]):
        old, new = make_version_pair(seed=seed, nbytes=15000, edits=8)
        (old_dir / f"f{index}.bin").write_bytes(old)
        (new_dir / f"f{index}.bin").write_bytes(new)
        new_side[f"f{index}.bin"] = new
    return old_dir, new_dir, new_side


class TestCrashSchedulerInterchange:
    """Checkpoints are scheduler-agnostic: a run crashed mid-wave under
    one scheduler resumes under the other."""

    @pytest.mark.parametrize(
        "crash_flags,resume_flags",
        [
            pytest.param(["--pipeline", "--window", "3"], [],
                         id="pipelined-crash-sequential-resume"),
            pytest.param([], ["--pipeline", "--window", "3"],
                         id="sequential-crash-pipelined-resume"),
        ],
    )
    def test_crash_resume_across_schedulers(self, tmp_path, crash_pair,
                                            crash_flags, resume_flags):
        old_dir, new_dir, new_side = crash_pair
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "out"

        proc = run_cli(
            "sync", old_dir, new_dir,
            "--checkpoint-dir", ckpt, "--output", out, *crash_flags,
            crash_env={"REPRO_CRASH_AFTER_CHECKPOINTS": "4"},
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"expected SIGKILL, got rc={proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
        assert sorted(ckpt.glob("*.ckpt")), "crashed run left no journal"

        proc = run_cli(
            "sync", old_dir, new_dir,
            "--checkpoint-dir", ckpt, "--output", out,
            "--resume", "--json", *resume_flags,
        )
        assert proc.returncode == 0, proc.stderr
        run = json.loads(proc.stdout)
        assert run["rounds_salvaged"] >= 1
        assert run["resume_handshake_bits"] > 0
        assert run["pipelined"] == bool(resume_flags)
        for name, data in new_side.items():
            assert (out / name).read_bytes() == data
        assert sorted(ckpt.glob("*.ckpt")) == []
