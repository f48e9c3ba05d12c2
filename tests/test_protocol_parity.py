"""Parity suites for the two protocol stacks.

*Core protocol:* there is one round engine (the array frontier, DESIGN
§13) and ``tests/test_golden_core.py`` pins its wire bytes.  The parity
pinned here is between an uninterrupted session and the same session
resumed from each of its round checkpoints: the resumed run must put the
rest of the original transcript on the wire, write the same later
checkpoints and end with the same stats.

*Multiround rsync:* the session's array frontier against
:func:`reference_map_phase`, a plain block-at-a-time round body over
ints — identical map-phase messages, pins and round checkpoints — plus
the same resume-from-every-checkpoint parity as the core protocol.
``tests/test_golden_multiround.py`` pins its whole wire.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.methods import MultiroundRsyncMethod
from repro.collection import CollectionScheduler
from repro.core import ProtocolConfig, synchronize
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import HashIndex, PrefixHasher
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitWriter
from repro.io.varint import encode_uvarint
from repro.multiround import (
    MultiroundConfig,
    MultiroundSession,
    multiround_rsync_sync,
)
from repro.multiround.protocol import PHASE_MAP
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction
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


def assert_resume_parity(old, new, config=None, min_checkpoints=0,
                         sync=synchronize):
    """Resuming from every round checkpoint reproduces the whole run.

    ``sync`` is the protocol's driver (:func:`synchronize` or
    :func:`multiround_rsync_sync`).
    """
    recorder = Recorder()
    channel = recording_channel()
    baseline = sync(old, new, config, channel, checkpointer=recorder)
    assert baseline.reconstructed == new
    assert len(recorder.checkpoints) >= min_checkpoints
    for at, checkpoint in enumerate(recorder.checkpoints):
        resumed_channel = recording_channel()
        checkpoint.seed_stats(resumed_channel.stats)
        later = Recorder()
        resumed = sync(
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


def reference_map_phase(old: bytes, new: bytes, config=None) -> list:
    """The multiround map phase, one block at a time over plain ints.

    The parity reference of :class:`MultiroundSession`'s array frontier.
    Returns one entry per round: the client's hash message and the
    server's bitmap (each as ``(payload, bits)``), then the frontier of
    ``(start, length)`` blocks and the ``(client_start, length,
    server_start)`` pins after the round.
    """
    config = config or MultiroundConfig()
    bits = config.hash_bits
    hasher = DecomposableAdler(seed=config.hash_seed)
    prefix = PrefixHasher(old, hasher)
    indexes: dict[int, HashIndex] = {}
    size = config.start_block_size
    blocks = [
        (start, min(size, len(old) - start))
        for start in range(0, len(old), size)
    ]
    pinned: list[tuple[int, int, int]] = []
    rounds = []
    while blocks:
        message = BitWriter()
        bitmap = BitWriter()
        next_blocks = []
        for start, length in blocks:
            value = DecomposableAdler.pack(prefix.block_pair(start, length), bits)
            message.write(value, bits)
            if length not in indexes:
                data = new if length <= len(new) else b""
                indexes[length] = HashIndex(data, length, hasher)
            positions = indexes[length].lookup(value, bits, max_results=1)
            bitmap.write_bit(bool(positions))
            if positions:
                pinned.append((start, length, positions[0]))
            elif length // 2 >= config.min_block_size:
                left = (length + 1) // 2
                next_blocks += [(start, left), (start + left, length - left)]
        rounds.append((
            (message.getvalue(), message.bit_length),
            (bitmap.getvalue(), bitmap.bit_length),
            list(next_blocks),
            list(pinned),
        ))
        blocks = next_blocks
    return rounds


def reference_checkpoint(new: bytes, frontier, pinned) -> bytes:
    """The round-state payload the session should record for a round."""
    fields = [len(frontier), *(f for block in frontier for f in block),
              len(pinned), *(f for pin in pinned for f in pin)]
    return file_fingerprint(new) + b"".join(map(encode_uvarint, fields))


def assert_matches_reference(old, new, config=None) -> Recorder:
    """Run a real session; its map phase must equal the reference's."""
    channel = recording_channel()
    recorder = Recorder()
    session = MultiroundSession(old, new, config, checkpointer=recorder)
    session.start(channel)
    while not session.done:
        session.step_round(channel)
    pins = [(p.client_start, p.length, p.server_start) for p in session.pinned]
    result = session.finish(channel)
    assert result.reconstructed == new

    rounds = reference_map_phase(old, new, config)
    expected = []
    for message, bitmap, _frontier, _pins in rounds:
        expected += [(Direction.CLIENT_TO_SERVER, *message),
                     (Direction.SERVER_TO_CLIENT, *bitmap)]
    assert [
        (m.direction, m.payload, m.bits)
        for m in channel.recorder if m.phase == PHASE_MAP
    ] == expected
    assert pins == (rounds[-1][3] if rounds else [])
    assert result.rounds == len(rounds)
    assert [c.payload for c in recorder.checkpoints] == [
        reference_checkpoint(new, frontier, round_pins)
        for _message, _bitmap, frontier, round_pins in rounds
    ]
    return recorder


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
        assert_matches_reference(old, new)

    def test_edge_inputs(self):
        config = MultiroundConfig()
        for old, new in [(b"", b""), (b"", b"x" * 900), (b"y" * 900, b""),
                         (b"z", b"z"), (b"y" * 900, b"y" * 900)]:
            assert_matches_reference(old, new, config)

    @pytest.mark.parametrize(
        "config",
        [
            MultiroundConfig(start_block_size=256, min_block_size=16),
            MultiroundConfig(hash_bits=16),
            MultiroundConfig(start_block_size=4096, min_block_size=2),
        ],
        ids=["small-blocks", "hash-bits-16", "down-to-two-bytes"],
    )
    def test_config_cells(self, config):
        old, new = make_version_pair(seed=1637, nbytes=9000, edits=6)
        assert_matches_reference(old, new, config)

    def test_checkpoints_bit_identical(self):
        old, new = make_version_pair(seed=1640, nbytes=15000, edits=8)
        first = assert_matches_reference(old, new)
        assert len(first.checkpoints) >= 2
        again = Recorder()
        multiround_rsync_sync(old, new, checkpointer=again)
        assert again.checkpoints == first.checkpoints

    @pytest.mark.parametrize("seed", [1641, 1642])
    def test_resume_from_every_checkpoint(self, seed):
        old, new = make_version_pair(seed=seed, nbytes=15000, edits=8)
        assert_resume_parity(
            old, new, min_checkpoints=2, sync=multiround_rsync_sync
        )

    def test_resume_parity_with_collision_repair(self):
        """Resumed runs also reproduce a repair endgame (8-bit hashes
        pin blocks at wrong positions; the fingerprint catches it)."""
        old, new = make_version_pair(seed=1643, nbytes=6000, edits=4)
        assert_resume_parity(
            old, new, MultiroundConfig(hash_bits=8, start_block_size=512),
            min_checkpoints=1, sync=multiround_rsync_sync,
        )

    @given(
        old=st.binary(max_size=3000),
        junk=st.binary(max_size=200),
        cut=st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_spliced_edits(self, old, junk, cut):
        at = min(cut, len(old))
        new = old[:at] + junk + old[at + len(junk):]
        config = MultiroundConfig(start_block_size=512, min_block_size=16)
        assert_matches_reference(old, new, config)
        assert_resume_parity(old, new, config, sync=multiround_rsync_sync)


# ----------------------------------------------------------------------
# Full-window collection batches (every changed file shares each turn)
# ----------------------------------------------------------------------
class TestBatchParity:
    @pytest.mark.parametrize("seed", [1650, 1651])
    def test_wire_and_stats_identical(self, seed):
        """Every file's transcript under the full window equals its own
        sequential run's; an identical pair rides along."""
        rng = random.Random(seed)
        tasks = []
        for index in range(4):
            old, new = make_version_pair(
                seed=seed * 100 + index,
                nbytes=rng.randrange(300, 9000),
                edits=rng.randrange(1, 8),
            )
            tasks.append(FileTask(f"f{index}.txt", old, new))
        tasks.append(FileTask("same.txt", b"s" * 2000, b"s" * 2000))

        scheduler = CollectionScheduler(
            MultiroundRsyncMethod(), window=len(tasks)
        )
        run = scheduler.run(tasks)
        for task, result in zip(tasks, run.files):
            assert run.reconstructed[task.name] == task.new
            channel = recording_channel()
            multiround_rsync_sync(task.old, task.new, channel=channel)
            assert run.transcripts[task.name] == channel.recorder, task.name
            assert result.outcome.total_bytes == channel.stats.total_bytes
        assert run.waves == run.roundtrips_on_wire
