"""Tests for the verification exchange, :meth:`LaneChannels.verify`.

The one implementation of the group-testing verification: the unicast
round runs it over a stack of files, the broadcast protocol over a stack
of one.  Each test builds real files whose candidates are true matches,
false ones, or false ones made to collide with their block at a chosen
hash width, and checks the units, messages and accepted items.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core import ProtocolConfig
from repro.core.client import ClientSession
from repro.core.protocol import LaneChannels
from repro.core.server import ServerSession
from repro.exceptions import TruncatedMessageError
from repro.io.bitstream import BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction

BLOCK = 24

#: Hash widths some batch of a built-in strategy uses.
WIDTHS = (6, 8, 12, 16, 20)


def _junk(rng, strong, block: bytes, collide_at: int | None) -> bytes:
    """A false candidate for ``block``: its individual hash equals the
    block's at ``collide_at`` bits (``None``: never) and differs at every
    wider batch width."""
    floor = collide_at or 0
    while True:
        junk = rng.randbytes(BLOCK)
        if all(
            (strong.bits(junk, bits) == strong.bits(block, bits))
            == (bits == floor)
            for bits in WIDTHS
            if bits >= floor
        ):
            return junk


def lane_files(config, kinds, seed):
    """A server file of one block per candidate, and a client file whose
    candidate ``i`` is the block itself (``"t"``), unrelated bytes
    (``"f"``) or bytes whose ``w``-bit hash collides with it (an int
    ``w``).  Returns both files and the client offsets."""
    rng = random.Random(seed)
    server_data = rng.randbytes(BLOCK * len(kinds))
    strong = ServerSession(server_data, config).strong
    client_data = bytearray(server_data)
    offsets = []
    for index, kind in enumerate(kinds):
        if kind == "t":
            offsets.append(index * BLOCK)
            continue
        block = server_data[index * BLOCK : (index + 1) * BLOCK]
        offsets.append(len(client_data))
        client_data += _junk(rng, strong, block, None if kind == "f" else kind)
    return server_data, bytes(client_data), offsets


class _ShortBitmapChannel(SimulatedChannel):
    """Delivers every server→client message empty."""

    def receive(self, direction):
        payload = super().receive(direction)
        return b"" if direction is Direction.SERVER_TO_CLIENT else payload


def run_stack(verification, *lanes, channel_class=SimulatedChannel):
    """Verify every lane's candidates in one stacked exchange.

    Returns the accepted candidates of each lane (local indices, in
    acceptance order), the verification bits per lane, every lane's
    transcript, its client files and the stack itself.
    """
    config = ProtocolConfig(verification=verification)
    channels, clients, servers = [], [], []
    plan_lanes, offsets, starts = [], [], []
    for lane, kinds in enumerate(lanes):
        server_data, client_data, lane_offsets = lane_files(config, kinds, lane)
        channel = channel_class()
        channel.recorder = []
        channels.append(channel)
        clients.append(ClientSession(client_data, config))
        servers.append(ServerSession(server_data, config))
        plan_lanes += [lane] * len(kinds)
        offsets += lane_offsets
        starts += [index * BLOCK for index in range(len(kinds))]
    link = LaneChannels(config, channels)
    rows = np.arange(len(plan_lanes))
    plan_lanes = np.asarray(plan_lanes, dtype=np.int64)
    lengths = np.full(rows.size, BLOCK, dtype=np.int64)
    accepted, confirmed, bits = link.verify(
        list(range(len(lanes))), clients, servers, plan_lanes,
        (np.asarray(offsets, dtype=np.int64), lengths),
        (np.asarray(starts, dtype=np.int64), lengths),
        rows, rows,
    )
    if link.live() == list(range(len(lanes))):
        # Both endpoints fold the same bitmaps: mirrored acceptance.
        assert accepted.tolist() == confirmed.tolist()
    first = np.searchsorted(plan_lanes, np.arange(len(lanes)))
    per_lane = [
        (accepted[plan_lanes[accepted] == lane] - first[lane]).tolist()
        for lane in range(len(lanes))
    ]
    return per_lane, bits.tolist(), [c.recorder for c in channels], clients, link


def sent_bits(transcript, direction):
    return [message.bits for message in transcript if message.direction is direction]


UP = Direction.CLIENT_TO_SERVER
DOWN = Direction.SERVER_TO_CLIENT


class TestMakeUnits:
    def test_individual_singletons(self):
        (accepted,), bits, (transcript,), _, _ = run_stack("trivial", "ttt")
        assert accepted == [0, 1, 2]
        assert sent_bits(transcript, UP) == [3 * 16]  # one hash each
        assert sent_bits(transcript, DOWN) == [3]

    def test_group_chunking_with_remainder(self):
        """group1: five candidates make a group of 4 and a group of 1."""
        (accepted,), _, (transcript,), _, _ = run_stack("group1", "ttttt")
        assert accepted == [0, 1, 2, 3, 4]
        assert sent_bits(transcript, UP) == [2 * 20]
        assert sent_bits(transcript, DOWN) == [2]

    def test_empty(self):
        (accepted,), bits, (transcript,), _, _ = run_stack("group1", "")
        assert accepted == [] and bits == [0]
        assert transcript == []  # nothing to verify, nothing sent

    def test_wire_bits(self):
        """Each lane's units are cut on their own: the second lane's two
        candidates do not join the first lane's remainder group."""
        accepted, bits, transcripts, _, _ = run_stack("group1", "ttttt", "tt")
        assert accepted == [[0, 1, 2, 3, 4], [0, 1]]
        assert bits == [2 * 20, 1 * 20]
        assert [sent_bits(t, DOWN) for t in transcripts] == [[2], [1]]


class TestPools:
    def test_individual_batch_filters(self):
        (accepted,), _, _, _, _ = run_stack("trivial", "tft")
        assert accepted == [0, 2]  # individual failures are final

    def test_group_failures_go_to_salvage(self):
        """group3: candidate 4 slips through the 6-bit filter, so the
        group of candidates 0-7 fails and all eight are salvaged, in
        order, one 12-bit hash each."""
        kinds = ["t"] * 10
        kinds[4] = 6
        (accepted,), _, (transcript,), (client,), _ = run_stack(
            "group3", kinds
        )
        assert sent_bits(transcript, UP) == [10 * 6, 2 * 16, 8 * 12]
        salvage = [m for m in transcript if m.direction is UP][2]
        offsets = [index * BLOCK for index in range(10)]
        offsets[4] = 10 * BLOCK  # the collider's bytes follow the blocks
        expected = BitWriter()
        expected.write_many(
            [
                client.strong.bits(client.data[offset : offset + BLOCK], 12)
                for offset in offsets[:8]
            ],
            12,
        )
        assert salvage.payload == expected.getvalue()
        assert sorted(accepted) == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_salvage_batch_accepts_immediately(self):
        """Salvaged candidates are accepted by the salvage batch itself,
        ahead of the survivors that passed every batch."""
        kinds = ["t"] * 10
        kinds[9] = 6
        (accepted,), _, (transcript,), _, _ = run_stack("group3", kinds)
        assert sent_bits(transcript, UP) == [10 * 6, 2 * 16, 2 * 12]
        assert accepted == [8, 0, 1, 2, 3, 4, 5, 6, 7]

    def test_finish_accepts_survivors_rejects_salvage(self):
        """group2 has no salvage batch: a failed group's true members are
        rejected with it."""
        kinds = ["t"] * 10
        kinds[2] = 8
        (accepted,), _, (transcript,), _, _ = run_stack("group2", kinds)
        assert sent_bits(transcript, UP) == [10 * 8, 2 * 16]
        assert accepted == [8, 9]

    def test_bitmap_length_mismatch_rejected(self):
        _, _, _, _, link = run_stack(
            "trivial", "ttt", channel_class=_ShortBitmapChannel
        )
        assert isinstance(link.errors[0], TruncatedMessageError)

    def test_full_group3_flow(self):
        """group3 end to end: candidate 6 fails the individual filter,
        candidate 4 passes it but fails its group and then its salvage."""
        kinds = ["t"] * 10
        kinds[4], kinds[6] = 6, "f"
        (accepted,), bits, (transcript,), _, _ = run_stack("group3", kinds)
        # Batch 1: ten 6-bit hashes.  Batch 2: survivors 0-5,7,8 and 9
        # in two groups.  Batch 3: the first group's eight members.
        assert sent_bits(transcript, UP) == [60, 32, 96]
        assert sent_bits(transcript, DOWN) == [10, 2, 8]
        assert bits == [60 + 32 + 96]
        assert accepted == [0, 1, 2, 3, 5, 7, 8, 9]
