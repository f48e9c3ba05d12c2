"""The core round-state snapshot: frontier invariants and a strict decoder."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig, synchronize
from repro.core.client import ClientSession
from repro.core.protocol import CoreSyncSession
from repro.core.server import ServerSession
from repro.core.snapshot import restore_round_state, snapshot_round_state
from repro.exceptions import ProtocolError
from repro.hashing.strong import file_fingerprint
from repro.io.varint import encode_uvarint
from repro.net.channel import SimulatedChannel
from repro.resilience import RoundCheckpoint
from tests.conftest import core_round, make_version_pair
from tests.test_properties import related_pair

OLD, NEW = make_version_pair(seed=77, nbytes=4096, edits=4)


def fresh_sessions(old: bytes = OLD, new: bytes = NEW, config=None):
    config = config or ProtocolConfig()
    return ClientSession(old, config), ServerSession(new, config)


def varints(*values: int) -> bytes:
    return b"".join(encode_uvarint(value) for value in values)


def snapshot(
    pairs=((0, 2048, 0, 0),), regions=(), entries=(), level=1,
    fingerprint=b"\x00" * 16,
) -> bytes:
    """A hand-built snapshot with the same frontier on both endpoints."""
    tracker = varints(level, len(pairs))
    tracker += b"".join(varints(*pair) for pair in pairs)
    tracker += varints(len(regions))
    tracker += b"".join(varints(*region) for region in regions)
    return (
        varints(1, 0, 0, len(fingerprint)) + fingerprint
        + tracker + tracker
        + varints(len(entries))
        + b"".join(varints(*entry) for entry in entries)
    )


def restore(payload: bytes):
    client, server = fresh_sessions()
    return restore_round_state(payload, client, server)


def valid_snapshots() -> list[bytes]:
    """Every round snapshot of one real session."""
    session = CoreSyncSession(OLD, NEW)
    channel = SimulatedChannel()
    session.start(channel)
    payloads = []
    while not session.done:
        core_round(session, channel)
        payloads.append(
            snapshot_round_state(
                session.client, session.server, session.rounds, 0, 0
            )
        )
    return payloads


class TestDecoderRejectsGarbage:
    def test_seeded_random_payloads_raise_only_protocol_error(self):
        rng = random.Random(7)
        for _ in range(400):
            payload = rng.randbytes(rng.randrange(64))
            try:
                restore(payload)
            except ProtocolError:
                pass

    def test_mutated_valid_payloads_raise_only_protocol_error(self):
        rng = random.Random(8)
        payloads = valid_snapshots()
        assert payloads
        for _ in range(300):
            mutated = bytearray(rng.choice(payloads))
            for _flip in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            cut = rng.randrange(len(mutated) + 1)
            for candidate in (bytes(mutated), bytes(mutated[:cut])):
                try:
                    restore(candidate)
                except ProtocolError:
                    pass

    def test_frontier_far_outside_the_file(self):
        # A 10**12-byte parent at 10**12 on a 4 KB file.
        with pytest.raises(ProtocolError, match="outside the file"):
            restore(snapshot(pairs=((10**12, 10**12, 0, 0),)))

    def test_resumed_session_fails_typed(self):
        checkpoint = RoundCheckpoint(
            1, snapshot(pairs=((10**12, 10**12, 0, 0),)), (), 0, 0
        )
        with pytest.raises(ProtocolError):
            synchronize(OLD, NEW, resume_from=checkpoint)

    @pytest.mark.parametrize(
        "payload,reason",
        [
            pytest.param(
                snapshot(pairs=((0, 1, 0, 0),)), "outside the file",
                id="parent-too-short-to-split",
            ),
            pytest.param(
                snapshot(pairs=((4000, 200, 0, 0),)), "outside the file",
                id="parent-past-end",
            ),
            pytest.param(
                snapshot(pairs=((0, 1024, 0, 0), (512, 1024, 0, 0))),
                "overlap",
                id="parents-overlap",
            ),
            pytest.param(
                snapshot(pairs=((2048, 1024, 0, 0), (0, 1024, 0, 0))),
                "overlap",
                id="parents-descending",
            ),
            pytest.param(snapshot(level=0), "level 0", id="pairs-at-level-0"),
            pytest.param(
                snapshot(pairs=((0, 2048, 33, 0),)), "width",
                id="known-width-over-32",
            ),
            pytest.param(
                snapshot(pairs=((0, 2048, 8, 256),)), "width",
                id="known-value-too-wide",
            ),
            pytest.param(
                snapshot(regions=((4000, 200),)), "outside the file",
                id="region-past-end",
            ),
            pytest.param(
                snapshot(regions=((0, 0),)), "outside the file",
                id="empty-region",
            ),
            pytest.param(
                snapshot(regions=((0, 100), (50, 100))), "overlap",
                id="regions-overlap",
            ),
            pytest.param(
                snapshot(entries=((0, 64, 5000),)), "outside the file",
                id="map-source-past-client-end",
            ),
            pytest.param(snapshot() + b"\x00", "trailing", id="trailing-bytes"),
            pytest.param(
                varints(1, 0, 0, 16) + b"\x00" * 16 + varints(1, 10**6),
                "count",
                id="pair-count-beyond-payload",
            ),
            pytest.param(
                varints(1, 0, 0, 1 << 20), "truncated", id="blob-beyond-payload"
            ),
            pytest.param(b"\x80" * 12, "malformed", id="unterminated-varint"),
            pytest.param(varints(1 << 63), "range", id="field-too-large"),
        ],
    )
    def test_impossible_geometry_rejected(self, payload, reason):
        with pytest.raises(ProtocolError, match=reason):
            restore(payload)

    def test_rejected_payload_leaves_sessions_untouched(self):
        client, server = fresh_sessions()
        with pytest.raises(ProtocolError):
            restore_round_state(
                snapshot(pairs=((0, 2048, 33, 0),)), client, server
            )
        assert client.tracker is None and server.global_bits is None

    def test_hand_built_snapshot_restores(self):
        client, server = fresh_sessions()
        rounds = restore_round_state(
            snapshot(pairs=((0, 2048, 16, 1234), (2048, 2048, 0, 0)),
                     regions=((0, 64),), entries=((0, 64, 10),)),
            client, server,
        )
        assert rounds == (1, 0, 0)
        tracker = client.tracker
        assert tracker.starts.tolist() == [0, 1024, 2048, 3072]
        assert tracker.parent_known_value.tolist() == [1234, 0]
        assert server.tracker.confirmed_regions == [(0, 64)]


def assert_frontier_invariants(tracker) -> None:
    starts, lengths = tracker.starts, tracker.lengths
    assert starts.size % 2 == 0
    assert tracker.level >= 1
    # Ascending and disjoint.
    assert (starts[1:] >= starts[:-1] + lengths[:-1]).all()
    assert (lengths >= 1).all()
    # Sibling pairs: the right child starts where the left ends, and the
    # left got the odd byte.
    left, right = lengths[0::2], lengths[1::2]
    assert (starts[1::2] == starts[0::2] + left).all()
    assert ((left - right == 0) | (left - right == 1)).all()
    assert tracker.parent_known_width.size == starts.size // 2
    assert not tracker.matched.any()
    assert not tracker.continuation_failed.any()


CONFIGS = [
    ProtocolConfig(),
    ProtocolConfig(continuation_first=False, use_local_hashes=True),
    ProtocolConfig(min_block_size=32, continuation_min_block_size=8,
                   use_decomposable=False),
]


@given(pair=related_pair(), config_index=st.integers(0, len(CONFIGS) - 1))
@settings(max_examples=40, deadline=None)
def test_round_boundaries_keep_frontier_invariants(pair, config_index):
    """At every round boundary both frontiers are the same ascending,
    disjoint sibling pairs, and snapshot → restore → snapshot is exact."""
    old, new = pair
    config = CONFIGS[config_index]
    session = CoreSyncSession(old, new, config)
    channel = SimulatedChannel()
    session.start(channel)
    while not session.done:
        core_round(session, channel)
        server, client = session.server.tracker, session.client.tracker
        for tracker in (server, client):
            assert_frontier_invariants(tracker)
        assert np.array_equal(server.starts, client.starts)
        assert np.array_equal(server.lengths, client.lengths)
        assert np.array_equal(
            server.parent_known_width, client.parent_known_width
        )
        assert not server.parent_known_value.any()
        payload = snapshot_round_state(
            session.client, session.server, session.rounds, 1, 2
        )
        again_client = ClientSession(old, config)
        again_server = ServerSession(new, config)
        assert restore_round_state(payload, again_client, again_server) == (
            session.rounds, 1, 2,
        )
        assert (
            snapshot_round_state(
                again_client, again_server, session.rounds, 1, 2
            )
            == payload
        )
    assert session.finish(channel).reconstructed == new


def test_fingerprint_survives_restore():
    client, server = fresh_sessions()
    fingerprint = file_fingerprint(NEW)
    restore_round_state(snapshot(fingerprint=fingerprint), client, server)
    assert client.server_fingerprint == fingerprint
