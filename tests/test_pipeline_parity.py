"""Pipelined round scheduler: parity, mux framing, crash interchange.

The pipelined scheduler's whole contract is "same bytes, fewer
roundtrips": per-file outcomes, wire transcripts and round checkpoints
must be bit-identical to the sequential path — for every protocol,
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
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.methods import MultiroundRsyncMethod, OursMethod, RsyncMethod
from repro.collection import CollectionScheduler
from repro.lanes import run_lane
from repro.collection.sync import sync_collection
from repro.exceptions import FrameCorruptionError
from repro.net import FaultPlan, LinkModel, SimulatedChannel
from repro.io.varint import encode_uvarint
from repro.net.frame import (
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.parallel import FileTask
from repro.parallel.cache import (
    reset_default_cache,
    reset_default_reference_cache,
)
from repro.resilience import CheckpointStore, SyncSupervisor
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
# Mux batch format
# ----------------------------------------------------------------------
class TestMuxFrame:
    def runs(self):
        return [
            [(8 * 5, b"hello")],
            [],  # an active lane with nothing to send this turn
            # Bit-packed payload: 12 bits in 2 bytes (4 padding bits),
            # then an empty message in the same run.
            [(12, b"\xab\xc0"), (0, b"")],
        ]

    def test_roundtrip(self):
        runs = self.runs()
        batch = encode_mux_batch(runs)
        assert decode_mux_batch(batch, len(runs)) == runs
        overhead = mux_overhead_bytes(batch, runs)
        assert overhead == len(batch) - 7
        # One bitmap byte, two run lengths and three bit lengths.
        assert overhead == 6

    def test_empty_batch(self):
        assert decode_mux_batch(encode_mux_batch([]), 0) == []
        assert decode_mux_batch(encode_mux_batch([[], []]), 2) == [[], []]

    def test_truncation_raises(self):
        batch = encode_mux_batch(self.runs())
        for cut in (0, 1, len(batch) // 2, len(batch) - 1):
            with pytest.raises(FrameCorruptionError):
                decode_mux_batch(batch[:cut], 3)

    def test_trailing_bytes_raise(self):
        batch = encode_mux_batch(self.runs())
        with pytest.raises(FrameCorruptionError):
            decode_mux_batch(batch + b"\x00", 3)

    def test_encode_rejects_inconsistent_bit_length(self):
        with pytest.raises(ValueError):
            encode_mux_batch([[(9, b"x")]])
        with pytest.raises(ValueError):
            encode_mux_batch([[(24, b"xy")]])

    def test_presence_beyond_active_lanes_raises(self):
        batch = encode_mux_batch(self.runs())
        with pytest.raises(FrameCorruptionError, match="beyond"):
            decode_mux_batch(batch, 2)

    def test_huge_announced_lengths_rejected_before_use(self):
        # Lane 0 present, announcing 2**62 messages; then a plausible run
        # whose one message announces 2**62 bits.
        huge = encode_uvarint(2**62)
        for batch in (b"\x01" + huge, b"\x01\x01" + huge + b"x"):
            started = time.perf_counter()
            with pytest.raises(FrameCorruptionError):
                decode_mux_batch(batch, 1)
            assert time.perf_counter() - started < 0.5


def _message():
    return st.integers(0, 80).flatmap(
        lambda bits: st.tuples(
            st.just(bits),
            st.binary(min_size=(bits + 7) // 8, max_size=(bits + 7) // 8),
        )
    )


_RUNS = st.lists(st.lists(_message(), max_size=4), max_size=64)
_LANES = st.integers(0, 64)


def _decode_within_bound(batch: bytes, lanes: int):
    """Messages or a typed error, quickly: never another exception."""
    started = time.perf_counter()
    try:
        runs = decode_mux_batch(batch, lanes)
    except FrameCorruptionError:
        runs = None
    assert time.perf_counter() - started < 1.0
    if runs is not None:
        assert len(runs) == lanes
    return runs


class TestMuxDecoderFuzz:
    """The decoder takes untrusted bytes: arbitrary input, crossed with
    any active-lane count, yields runs or ``FrameCorruptionError``."""

    @given(batch=st.binary(max_size=300), lanes=_LANES)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, batch, lanes):
        runs = _decode_within_bound(batch, lanes)
        if runs is not None:
            assert decode_mux_batch(encode_mux_batch(runs), lanes) == runs

    @given(runs=_RUNS, lanes=_LANES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_batches(self, runs, lanes, data):
        batch = encode_mux_batch(runs)
        assert decode_mux_batch(batch, len(runs)) == runs
        mutation = data.draw(st.sampled_from(["flip", "cut", "insert", "none"]))
        if mutation == "flip" and batch:
            at = data.draw(st.integers(0, len(batch) - 1))
            bit = data.draw(st.integers(0, 7))
            batch = batch[:at] + bytes([batch[at] ^ (1 << bit)]) + batch[at + 1 :]
        elif mutation == "cut" and batch:
            batch = batch[: data.draw(st.integers(0, len(batch) - 1))]
        elif mutation == "insert":
            at = data.draw(st.integers(0, len(batch)))
            batch = batch[:at] + data.draw(st.binary(min_size=1, max_size=3)) + batch[at:]
        _decode_within_bound(batch, lanes)


# ----------------------------------------------------------------------
# LinkModel.transfer_seconds (the one link-time formula)
# ----------------------------------------------------------------------
class TestTransferSeconds:
    def test_scalar_matches_directional(self):
        link = LinkModel(bandwidth_bps=2e6, latency_s=0.1, uplink_bps=5e5)
        # 1000 B up at 500 kbit/s, 4000 B down at 2 Mbit/s, 7 roundtrips.
        assert link.transfer_seconds(1000, 4000, 7) == pytest.approx(
            8.0 * 1000 / 5e5 + 8.0 * 4000 / 2e6 + 2 * 0.1 * 7
        )

    def test_vector_accumulates(self):
        link = LinkModel(bandwidth_bps=1e6, latency_s=0.05)
        ups, downs, trips = [100, 200, 300], [50, 0, 950], [2, 5, 0]
        expected = sum(
            link.transfer_seconds(u, d, t)
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
            [FileTask(name, old_side[name], new_side[name]) for name in old_side]
        )
        for name in old_side:
            channel = SimulatedChannel(LINK)
            channel.recorder = []
            session = method_factory().open_session(
                old_side[name], new_side[name]
            )
            run_lane(session.steps(channel))
            assert run.transcripts[name] == channel.recorder, name

    def test_cross_engine_parity(self):
        """The multiround protocol puts the same bytes through the
        pipelined scheduler — wire figures included — as both of its
        former round engines did (values recorded in
        ``golden_multiround.json`` before one engine was deleted)."""
        from tests.test_golden_multiround import (
            as_json,
            golden_outcome,
            pipelined_outcome,
        )

        assert as_json(pipelined_outcome()) == golden_outcome(
            "pipelined/window-4"
        )

    def test_cross_executor_parity(self):
        """Serial and process-pool sequential runs both agree
        with the pipelined outcomes — the scheduler changes scheduling,
        never bytes."""
        old_side, new_side = make_collection(count=4)
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            pipeline=True, window=4,
        )
        for kwargs in (dict(workers=1), dict(workers=2)):
            sequential = sync_collection(
                old_side, new_side, OursMethod(), link=LINK, **kwargs
            )
            assert sequential.per_file == pipelined.per_file, kwargs

    def test_pool_matches_serial(self):
        """A pipelined run fans its files out over the process pool like
        a sequential one; the shared link it replays stays the same."""
        old_side, new_side = make_collection(count=6)
        serial, pooled = (
            sync_collection(
                old_side, new_side, OursMethod(), link=LINK,
                pipeline=True, window=8, workers=workers,
            )
            for workers in (1, 2)
        )
        assert serial.workers == 1
        assert pooled.workers == 2
        for field in (
            "per_file",
            "reconstructed",
            "waves",
            "mux_overhead_bytes",
            "roundtrips_on_wire",
            "link_wall_clock_s",
        ):
            assert getattr(pooled, field) == getattr(serial, field), field

    def test_checkpointed_outcomes_match_sequential(self, tmp_path):
        """Journalling under the scheduler mirrors the supervisor's
        accounting on a clean run."""
        old_side, new_side = make_collection(count=3)
        sequential = sync_collection(
            old_side, new_side,
            SyncSupervisor(
                OursMethod(), link=LINK,
                checkpoints=CheckpointStore(tmp_path / "seq"),
            ),
            link=LINK,
        )
        pipelined = sync_collection(
            old_side, new_side,
            SyncSupervisor(
                OursMethod(), link=LINK,
                checkpoints=CheckpointStore(tmp_path / "pipe"),
            ),
            link=LINK, pipeline=True, window=3,
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
        with pytest.raises(ValueError, match="window"):
            sync_collection(
                old_side, new_side, OursMethod(), pipeline=True, window=0
            )

    def test_session_less_method_pipelines_as_one_step_lanes(self):
        """A method without a step-wise session (rsync) is one step per
        file: each window of files costs two shared batches (signatures
        up, deltas down) and moves the same bytes as the sequential run."""
        old_side, new_side = make_collection(count=4)
        sequential = sync_collection(old_side, new_side, RsyncMethod(), link=LINK)
        pipelined = sync_collection(
            old_side, new_side, RsyncMethod(), link=LINK,
            pipeline=True, window=2,
        )
        assert pipelined.per_file == sequential.per_file
        assert pipelined.reconstructed == new_side
        assert pipelined.waves == pipelined.roundtrips_on_wire == 4
        assert pipelined.roundtrips_on_wire < sequential.roundtrips_on_wire

    @pytest.mark.parametrize(
        "options",
        [
            {"fault_plan": "uniform", "on_error": "fallback"},
            {"deadline_s": 5.0, "on_error": "skip"},
            {"retry": "static", "on_error": "skip"},
        ],
        ids=["faults", "deadline", "retries"],
    )
    def test_resilience_options_pipeline(self, options):
        """Fault injection, retries, deadlines and ``on_error`` isolation
        used to be refused with ``pipeline=True``; at ``window=1`` they
        now report exactly what the sequential run reports."""
        from repro.resilience import RetryPolicy

        old_side, new_side = make_collection(count=4)
        reports = []
        for pipelined in (False, True):
            resilience = dict(options)
            on_error = resilience.pop("on_error")
            if resilience.get("fault_plan"):
                resilience["fault_plan"] = FaultPlan.uniform(0.05, seed=11)
            if resilience.get("retry"):
                resilience["retry"] = RetryPolicy(max_attempts=2)
            reports.append(
                sync_collection(
                    old_side, new_side,
                    SyncSupervisor(OursMethod(), link=LINK, **resilience),
                    link=LINK, on_error=on_error,
                    pipeline=pipelined, window=1,
                )
            )
        sequential, pipelined = reports
        assert pipelined.pipelined
        assert pipelined.per_file == sequential.per_file
        assert pipelined.failed == sequential.failed
        assert pipelined.fallbacks == sequential.fallbacks
        assert pipelined.reconstructed == sequential.reconstructed


def slow_link_subset(count=24):
    """The first ``count`` files of the benchmark's slow-link input, seed 1."""
    spec = importlib.util.spec_from_file_location(
        "perf_inputs", SRC.parent / "perf" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    old_side, new_side = inputs.slow_link(1)
    names = sorted(new_side)[:count]  # count=None: every file
    return (
        {name: old_side[name] for name in names},
        {name: new_side[name] for name in names},
    )


def counter_view_tree():
    """The seeded tree every counter-view scenario runs on."""
    from tests.test_counter_views import _tree

    return _tree()


LEDGER_INPUTS = {
    "counter-view-tree": counter_view_tree,
    "slow-link-24": slow_link_subset,
}


class TestSharedLinkLedger:
    """Every byte on the shared link is a lane's recorded payload or mux
    header, and every batch is one direction turn."""

    @pytest.mark.parametrize("window", [1, 8, "all"])
    @pytest.mark.parametrize("inputs", sorted(LEDGER_INPUTS))
    def test_bytes_and_turns(self, inputs, window):
        old_side, new_side = LEDGER_INPUTS[inputs]()
        tasks = [
            FileTask(name, old_side[name], new_side[name])
            for name in sorted(new_side)
            if name in old_side and old_side[name] != new_side[name]
        ]
        scheduler = CollectionScheduler(
            OursMethod(),
            window=len(tasks) if window == "all" else window,
            link=LINK,
        )
        run = scheduler.run(tasks)
        lane_bytes = sum(
            len(message.payload)
            for transcript in run.transcripts.values()
            for message in transcript
        )
        assert run.shared_stats.total_bytes == (
            lane_bytes + run.mux_overhead_bytes
        )
        assert run.roundtrips_on_wire == run.waves

    @pytest.mark.parametrize("inputs", sorted(LEDGER_INPUTS))
    def test_window_one_matches_sequential(self, inputs):
        old_side, new_side = LEDGER_INPUTS[inputs]()
        sequential = sync_collection(old_side, new_side, OursMethod(), link=LINK)
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            pipeline=True, window=1,
        )
        assert pipelined.per_file == sequential.per_file
        assert pipelined.roundtrips_on_wire <= sequential.roundtrips_on_wire

    def test_full_window_beats_lockstep_on_slow_link(self):
        """The whole slow-link collection in one window needs no more
        roundtrips than the retired lockstep batch path's 65."""
        old_side, new_side = slow_link_subset(count=None)
        report = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            pipeline=True, window=len(new_side),
        )
        assert report.reconstructed == new_side
        assert report.roundtrips_on_wire == report.waves <= 65


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
