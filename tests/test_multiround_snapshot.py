"""The multiround round-state snapshot: a strict decoder.

A resumed :func:`multiround_rsync_sync` trusts nothing in its
checkpoint: a payload that is malformed (truncated, unterminated
varints, counts beyond the bytes left, trailing junk) or impossible for
the two files (frontier rows outside the old file, empty, overlapping or
out of order; pins outside either file) raises
:class:`~repro.exceptions.ProtocolError` before the session is touched.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ProtocolError
from repro.hashing.strong import file_fingerprint
from repro.io.varint import encode_uvarint
from repro.multiround import MultiroundConfig, multiround_rsync_sync
from repro.multiround.protocol import decode_round_state
from repro.net.channel import SimulatedChannel
from repro.resilience import RoundCheckpoint
from tests.conftest import make_version_pair

OLD, NEW = make_version_pair(seed=91, nbytes=6000, edits=4)
FINGERPRINT = file_fingerprint(NEW)


def varints(*values: int) -> bytes:
    return b"".join(encode_uvarint(value) for value in values)


def state(frontier=((0, 2048),), pins=(), fingerprint=FINGERPRINT) -> bytes:
    """A hand-built round state (16-byte fingerprint, then two tables)."""
    return (
        fingerprint
        + varints(len(frontier), *(f for row in frontier for f in row))
        + varints(len(pins), *(f for pin in pins for f in pin))
    )


def resume(payload: bytes, round_index: int = 1):
    checkpoint = RoundCheckpoint(round_index, payload, (), 0, 0)
    return multiround_rsync_sync(OLD, NEW, resume_from=checkpoint)


class Recorder:
    def __init__(self) -> None:
        self.checkpoints: list[RoundCheckpoint] = []

    def record_round(self, round_index, payload, stats) -> None:
        self.checkpoints.append(
            RoundCheckpoint.at_boundary(round_index, payload, stats)
        )


def real_checkpoints(config=None) -> list[RoundCheckpoint]:
    recorder = Recorder()
    multiround_rsync_sync(OLD, NEW, config, checkpointer=recorder)
    assert len(recorder.checkpoints) >= 2
    return recorder.checkpoints


class TestCraftedPayloads:
    @pytest.mark.parametrize(
        "payload,reason",
        [
            pytest.param(b"", "truncated", id="empty"),
            pytest.param(b"abc", "truncated", id="short-fingerprint"),
            pytest.param(FINGERPRINT + b"\x80", "malformed",
                         id="truncated-varint"),
            pytest.param(FINGERPRINT + b"\xff" * 12, "malformed",
                         id="unterminated-varint"),
            pytest.param(FINGERPRINT + varints(10**9), "count exceeds",
                         id="count-beyond-payload"),
            pytest.param(state(frontier=((10**12, 100),)), "outside the file",
                         id="row-far-outside"),
            pytest.param(state(frontier=((0, 0),)), "outside the file",
                         id="empty-row"),
            pytest.param(state(frontier=((5990, 20),)), "outside the file",
                         id="row-past-end"),
            pytest.param(state(frontier=((0, 100), (50, 100))), "overlap",
                         id="rows-overlap"),
            pytest.param(state(frontier=((100, 10), (0, 10))), "overlap",
                         id="rows-descending"),
            pytest.param(state(pins=((len(OLD) + 5, 10, 0),)),
                         "outside the file", id="pin-outside-old"),
            pytest.param(state(pins=((0, 10, len(NEW)),)),
                         "outside the file", id="pin-outside-new"),
            pytest.param(state(pins=((0, 10**12, 0),)), "outside the file",
                         id="pin-length-huge"),
            pytest.param(state(pins=((0, 0, 0),)), "outside the file",
                         id="pin-empty"),
            pytest.param(state() + b"\x00", "trailing", id="trailing-junk"),
        ],
    )
    def test_rejected_with_protocol_error(self, payload, reason):
        with pytest.raises(ProtocolError, match=reason):
            decode_round_state(payload, len(OLD), len(NEW))
        with pytest.raises(ProtocolError, match=reason):
            resume(payload)

    def test_well_formed_state_resumes(self):
        payload = state(frontier=((0, 2048), (2048, 2048)),
                        pins=((4096, 64, 4000),))
        fingerprint, starts, lengths, pins = decode_round_state(
            payload, len(OLD), len(NEW)
        )
        assert fingerprint == FINGERPRINT
        assert starts.tolist() == [0, 2048]
        assert lengths.tolist() == [2048, 2048]
        assert [(p.client_start, p.length, p.server_start) for p in pins] == [
            (4096, 64, 4000)
        ]
        assert resume(payload).reconstructed == NEW

    def test_empty_frontier_goes_straight_to_the_delta(self):
        result = resume(state(frontier=()))
        assert result.reconstructed == NEW


class TestArbitraryPayloads:
    def test_seeded_random_payloads_raise_only_protocol_error(self):
        rng = random.Random(17)
        for _ in range(400):
            payload = rng.randbytes(rng.randrange(64))
            if rng.random() < 0.5:
                payload = FINGERPRINT + payload
            try:
                decode_round_state(payload, len(OLD), len(NEW))
            except ProtocolError:
                pass

    def test_real_checkpoints_round_trip(self):
        for checkpoint in real_checkpoints():
            channel = SimulatedChannel()
            checkpoint.seed_stats(channel.stats)
            resumed = multiround_rsync_sync(
                OLD, NEW, channel=channel, resume_from=checkpoint
            )
            assert resumed.reconstructed == NEW

    @pytest.mark.parametrize(
        "config",
        [None, MultiroundConfig(start_block_size=512, min_block_size=16)],
        ids=["defaults", "small-blocks"],
    )
    def test_mutated_checkpoints_fail_typed_or_reconstruct(self, config):
        rng = random.Random(18)
        checkpoints = real_checkpoints(config)
        for _ in range(120):
            checkpoint = rng.choice(checkpoints)
            mutated = bytearray(checkpoint.payload)
            for _flip in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            cut = rng.randrange(len(mutated) + 1)
            for candidate in (bytes(mutated), bytes(mutated[:cut])):
                try:
                    result = multiround_rsync_sync(
                        OLD, NEW, config,
                        resume_from=RoundCheckpoint(
                            checkpoint.round_index, candidate, (), 0, 0
                        ),
                    )
                except ProtocolError:
                    continue
                assert result.reconstructed == NEW
