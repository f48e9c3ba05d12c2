"""Parity suites for the two protocol stacks.

*Core protocol:* there is one round engine (the array frontier, DESIGN
§13) and ``tests/test_golden_core.py`` pins its wire bytes.  The parity
pinned here is between an uninterrupted session and the same session
resumed from each of its round checkpoints: the resumed run must put the
rest of the original transcript on the wire, write the same later
checkpoints and end with the same stats.

*Multiround rsync:* the vectorized round engine against the scalar
oracle kept behind ``engine="scalar"`` — byte-identical traffic,
identical :class:`TransferStats`, interchangeable round checkpoints.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.methods import MultiroundRsyncMethod
from repro.collection import CollectionScheduler
from repro.core import (
    ENGINE_ENV,
    ENGINES,
    ProtocolConfig,
    default_engine,
    resolve_engine,
    synchronize,
)
from repro.multiround import MultiroundConfig, multiround_rsync_sync
from repro.net.channel import SimulatedChannel
from repro.parallel import FileTask
from repro.resilience import RoundCheckpoint
from tests.conftest import make_version_pair


def recording_channel() -> SimulatedChannel:
    """A channel that keeps a verbatim transcript of every send."""
    channel = SimulatedChannel()
    channel.recorder = []
    return channel


class Recorder:
    """A checkpointer that keeps every round checkpoint in memory."""

    def __init__(self):
        self.checkpoints: list[RoundCheckpoint] = []

    def record_round(self, round_index, payload, stats):
        self.checkpoints.append(
            RoundCheckpoint.at_boundary(round_index, payload, stats)
        )


def run_core(old, new, config=None, checkpointer=None):
    channel = recording_channel()
    result = synchronize(old, new, config, channel, checkpointer=checkpointer)
    return result, channel


def wire(messages):
    """A transcript without round tags (a resumed channel starts at 0)."""
    return [
        (m.direction, m.payload, m.phase, m.bits) for m in messages
    ]


def assert_resume_parity(old, new, config=None, min_checkpoints=0):
    """Resuming from every round checkpoint reproduces the whole run."""
    recorder = Recorder()
    baseline, channel = run_core(old, new, config, checkpointer=recorder)
    assert baseline.reconstructed == new
    assert len(recorder.checkpoints) >= min_checkpoints
    for at, checkpoint in enumerate(recorder.checkpoints):
        resumed_channel = recording_channel()
        checkpoint.seed_stats(resumed_channel.stats)
        later = Recorder()
        resumed = synchronize(
            old, new, config, resumed_channel,
            checkpointer=later, resume_from=checkpoint,
        )
        assert resumed.reconstructed == new
        assert resumed.rounds == baseline.rounds
        assert resumed.stats.bits_by == baseline.stats.bits_by
        assert resumed.stats.messages == baseline.stats.messages
        assert wire(resumed_channel.recorder) == wire(
            channel.recorder[checkpoint.messages:]
        ), f"resume from round {checkpoint.round_index} diverged"
        assert [c.payload for c in later.checkpoints] == [
            c.payload for c in recorder.checkpoints[at + 1:]
        ]
    return recorder


def run_multiround(old, new, config=None, engine="vectorized",
                   checkpointer=None):
    channel = recording_channel()
    result = multiround_rsync_sync(
        old, new, config, channel, checkpointer=checkpointer, engine=engine
    )
    return result, channel


def assert_same_wire(vec_channel, scalar_channel):
    assert vec_channel.recorder == scalar_channel.recorder
    assert vec_channel.stats.bits_by == scalar_channel.stats.bits_by
    assert vec_channel.stats.messages == scalar_channel.stats.messages
    assert vec_channel.stats.roundtrips == scalar_channel.stats.roundtrips


# ----------------------------------------------------------------------
# Core protocol (map construction, candidates, verification)
# ----------------------------------------------------------------------
CORE_CONFIGS = [
    pytest.param(None, id="defaults"),
    pytest.param(
        ProtocolConfig(use_local_hashes=True), id="local-hashes"
    ),
    pytest.param(
        ProtocolConfig(verification="trivial"), id="trivial-verify"
    ),
    pytest.param(
        ProtocolConfig(verification="group3"), id="group3-verify"
    ),
    pytest.param(
        ProtocolConfig(continuation_min_block_size=None),
        id="no-continuation",
    ),
]


class TestCoreParity:
    @pytest.mark.parametrize("config", CORE_CONFIGS)
    def test_wire_and_stats_identical(self, config):
        old, new = make_version_pair(seed=1601, nbytes=16000, edits=8)
        assert_resume_parity(old, new, config, min_checkpoints=2)

    @pytest.mark.parametrize("seed", range(1610, 1618))
    def test_randomized_version_pairs(self, seed):
        rng = random.Random(seed)
        old, new = make_version_pair(
            seed=seed,
            nbytes=rng.randrange(200, 24000),
            edits=rng.randrange(1, 14),
        )
        assert_resume_parity(old, new)

    @pytest.mark.parametrize(
        "old,new",
        [
            (b"", b""),
            (b"", b"fresh content, nothing shared"),
            (b"stale content, all deleted", b""),
            (b"identical bytes" * 50, b"identical bytes" * 50),
            (b"\x00" * 4096, b"\x00" * 4095 + b"\x01"),
        ],
        ids=["both-empty", "empty-old", "empty-new", "identical", "runs"],
    )
    def test_edge_inputs(self, old, new):
        assert_resume_parity(old, new)

    @given(
        old=st.binary(max_size=3000),
        junk=st.binary(max_size=200),
        cut=st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_spliced_edits(self, old, junk, cut):
        at = min(cut, len(old))
        new = old[:at] + junk + old[at + len(junk):]
        assert_resume_parity(old, new)

    def test_checkpoints_bit_identical(self):
        old, new = make_version_pair(seed=1620, nbytes=15000, edits=8)
        first = assert_resume_parity(old, new, min_checkpoints=2)
        again = Recorder()
        run_core(old, new, checkpointer=again)
        assert again.checkpoints == first.checkpoints


# ----------------------------------------------------------------------
# Multiround rsync (frontier bookkeeping, bitmap, splits)
# ----------------------------------------------------------------------
class TestMultiroundParity:
    @pytest.mark.parametrize("seed", range(1630, 1636))
    def test_wire_and_stats_identical(self, seed):
        rng = random.Random(seed)
        old, new = make_version_pair(
            seed=seed,
            nbytes=rng.randrange(500, 20000),
            edits=rng.randrange(1, 12),
        )
        vec, vec_channel = run_multiround(old, new, None, "vectorized")
        scalar, scalar_channel = run_multiround(old, new, None, "scalar")
        assert vec.reconstructed == new == scalar.reconstructed
        assert vec.rounds == scalar.rounds
        assert_same_wire(vec_channel, scalar_channel)

    def test_edge_inputs(self):
        config = MultiroundConfig()
        for old, new in [(b"", b""), (b"", b"x" * 900), (b"y" * 900, b"")]:
            vec, vec_channel = run_multiround(old, new, config, "vectorized")
            scalar, scalar_channel = run_multiround(old, new, config, "scalar")
            assert vec.reconstructed == new == scalar.reconstructed
            assert_same_wire(vec_channel, scalar_channel)

    def test_checkpoints_bit_identical(self):
        old, new = make_version_pair(seed=1640, nbytes=15000, edits=8)
        vec_recorder, scalar_recorder = Recorder(), Recorder()
        run_multiround(old, new, engine="vectorized",
                       checkpointer=vec_recorder)
        run_multiround(old, new, engine="scalar",
                       checkpointer=scalar_recorder)
        assert len(vec_recorder.checkpoints) >= 2
        assert vec_recorder.checkpoints == scalar_recorder.checkpoints

    @pytest.mark.parametrize(
        "crash_engine,resume_engine",
        [("vectorized", "scalar"), ("scalar", "vectorized")],
    )
    def test_cross_engine_resume(self, crash_engine, resume_engine):
        old, new = make_version_pair(seed=1641, nbytes=15000, edits=8)
        recorder = Recorder()
        baseline, _ = run_multiround(
            old, new, engine=crash_engine, checkpointer=recorder
        )
        assert len(recorder.checkpoints) >= 2
        for checkpoint in recorder.checkpoints:
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            resumed = multiround_rsync_sync(
                old, new, channel=channel, resume_from=checkpoint,
                engine=resume_engine,
            )
            assert resumed.reconstructed == new
            assert resumed.rounds == baseline.rounds
            assert resumed.stats.bits_by == baseline.stats.bits_by


# ----------------------------------------------------------------------
# Full-window collection batches (every changed file shares each turn)
# ----------------------------------------------------------------------
class TestBatchParity:
    @pytest.mark.parametrize("seed", [1650, 1651])
    def test_wire_and_stats_identical(self, seed, monkeypatch):
        rng = random.Random(seed)
        tasks = []
        for index in range(4):
            old, new = make_version_pair(
                seed=seed * 100 + index,
                nbytes=rng.randrange(300, 9000),
                edits=rng.randrange(1, 8),
            )
            tasks.append(FileTask(f"f{index}.txt", old, new))
        # An identical pair rides along: both engines must agree on it too.
        tasks.append(FileTask("same.txt", b"s" * 2000, b"s" * 2000))

        schedulers = {}
        for engine in ENGINES:
            monkeypatch.setenv(ENGINE_ENV, engine)
            scheduler = CollectionScheduler(
                MultiroundRsyncMethod(), window=len(tasks)
            )
            scheduler.shared.recorder = []
            schedulers[engine] = (scheduler, scheduler.run(tasks))
        (vec_scheduler, vec), (scalar_scheduler, scalar) = (
            schedulers["vectorized"],
            schedulers["scalar"],
        )
        assert vec.reconstructed == scalar.reconstructed
        for task in tasks:
            assert vec.reconstructed[task.name] == task.new
        assert [f.outcome for f in vec.files] == [f.outcome for f in scalar.files]
        assert vec.transcripts == scalar.transcripts
        assert vec.waves == scalar.waves
        assert_same_wire(vec_scheduler.shared, scalar_scheduler.shared)


# ----------------------------------------------------------------------
# Engine selection (explicit argument + environment default)
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engines_registry(self):
        assert ENGINES == ("vectorized", "scalar")

    def test_explicit_engine_validated(self):
        old, new = make_version_pair(seed=1660, nbytes=2000, edits=2)
        with pytest.raises(ValueError, match="engine"):
            multiround_rsync_sync(old, new, engine="bogus")

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        assert default_engine() == "scalar"
        assert resolve_engine(None) == "scalar"
        monkeypatch.setenv(ENGINE_ENV, "vectorized")
        assert resolve_engine(None) == "vectorized"

    def test_env_var_garbage_falls_back_to_vectorized(self, monkeypatch):
        """A typo'd deploy knob must not abort syncs — fall back safely."""
        monkeypatch.setenv(ENGINE_ENV, "turbo9000")
        assert default_engine() == "vectorized"
        old, new = make_version_pair(seed=1661, nbytes=2000, edits=2)
        result = multiround_rsync_sync(old, new)
        assert result.reconstructed == new

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vectorized")
        assert resolve_engine("scalar") == "scalar"
