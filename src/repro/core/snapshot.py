"""Round-boundary snapshots of the core protocol's endpoint state.

At a round boundary — both trackers freshly advanced — the live state of
:func:`~repro.core.protocol.synchronize` is small and flat, because the
protocol's mirroring discipline already forces everything to be derivable
from a few facts:

* every *current* block is a just-split child, so the frontier is fully
  described by the parent geometry plus the parent's known (global) hash
  width and value, and the split rule deterministically rebuilds the
  sibling pairs;
* the confirmed-match adjacency arrays are projections of the ordered
  ``confirmed_regions`` list (order preserved — the local-anchor search
  breaks distance ties by confirmation order);
* the client's source-position maps are projections of its
  :class:`~repro.core.filemap.FileMap` entries.

:func:`snapshot_round_state` serializes exactly those facts (varint
format, opaque to the journal layer); :func:`restore_round_state` rebuilds
two fresh sessions into the identical mid-protocol state, so a resumed
run continues with the same plans, the same hash widths and the same
delta reference as the interrupted one would have.

The decoder trusts nothing: its :class:`~repro.io.varint.VarintReader`
checks every count against the bytes left before anything is allocated,
and the decoded geometry must be possible for the two files at hand
(parents inside the server file, ascending and disjoint; hash widths at
most 32 bits with values that fit; confirmed regions and map entries
inside the files).  Anything else
raises :class:`~repro.exceptions.ProtocolError`, which the supervisor
treats as recoverable.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockTracker
from repro.core.client import ClientSession
from repro.core.server import ServerSession
from repro.exceptions import ProtocolError
from repro.io.varint import VarintReader, encode_uvarint

#: Widest known hash a frontier parent can carry.
_MAX_HASH_WIDTH = 32


def _encode_all(out: bytearray, values) -> None:
    out += b"".join(encode_uvarint(value) for value in values)


def _encode_tracker(out: bytearray, tracker: BlockTracker) -> None:
    out += encode_uvarint(tracker.level)
    rows = tracker.starts.size
    if rows % 2 or (rows and not tracker.paired):
        raise ProtocolError("frontier is not made of sibling pairs")
    lengths = tracker.lengths
    out += encode_uvarint(rows // 2)
    _encode_all(
        out,
        np.column_stack([
            tracker.starts[0::2],
            lengths[0::2] + lengths[1::2],
            tracker.parent_known_width,
            tracker.parent_known_value.astype(np.int64),
        ]).ravel().tolist(),
    )
    out += encode_uvarint(len(tracker.confirmed_regions))
    _encode_all(
        out, [field for region in tracker.confirmed_regions for field in region]
    )


def check_disjoint(starts: np.ndarray, ends: np.ndarray, what: str) -> None:
    """Sorted-by-start regions must not overlap."""
    if bool((starts[1:] < ends[:-1]).any()):
        raise ProtocolError(f"snapshot {what} overlap")


def check_inside(
    starts: np.ndarray, lengths: np.ndarray, limit: int, minimum: int, what: str
) -> None:
    if bool((lengths < minimum).any()) or bool(
        (starts + lengths > limit).any()
    ):
        raise ProtocolError(f"snapshot {what} outside the file")


def _decode_tracker(reader: VarintReader, server_length: int):
    """Parse and check one tracker; returns the arguments to restore it."""
    level = reader.uint()
    parents = reader.table(4)
    regions = reader.table(2)
    starts, lengths, known_width, known_value = parents.T
    # Every parent splits into two non-empty children.
    check_inside(starts, lengths, server_length, 2, "frontier parent")
    check_disjoint(starts, starts + lengths, "frontier parents")
    if parents.size and level == 0:
        raise ProtocolError("snapshot frontier at level 0")
    if bool((known_width > _MAX_HASH_WIDTH).any()) or bool(
        (known_value >> known_width).any()
    ):
        raise ProtocolError("snapshot known hash does not fit its width")
    check_inside(regions[:, 0], regions[:, 1], server_length, 1, "region")
    order = np.argsort(regions[:, 0], kind="stable")
    check_disjoint(
        regions[order, 0], regions[order, 0] + regions[order, 1], "regions"
    )
    return (
        level,
        starts,
        lengths,
        known_width,
        known_value.astype(np.uint64),
        [tuple(region) for region in regions.tolist()],
    )


def _restore_tracker(tracker: BlockTracker, decoded) -> None:
    *frontier, regions = decoded
    tracker.restore_frontier(*frontier)
    tracker.restore_confirmed(regions)


def snapshot_round_state(
    client: ClientSession,
    server: ServerSession,
    rounds: int,
    continuation_candidates: int,
    continuation_accepted: int,
) -> bytes:
    """Serialize both endpoints' state at a completed round boundary."""
    if client.server_fingerprint is None:
        raise ProtocolError("cannot snapshot before the handshake")
    out = bytearray()
    _encode_all(out, (rounds, continuation_candidates, continuation_accepted))
    out += encode_uvarint(len(client.server_fingerprint))
    out += client.server_fingerprint
    _encode_tracker(out, server.tracker)
    _encode_tracker(out, client._require_tracker())
    entries = client._require_map().entries()
    out += encode_uvarint(len(entries))
    _encode_all(
        out,
        [
            field
            for entry in entries
            for field in (entry.start, entry.length, entry.source)
        ],
    )
    return bytes(out)


def restore_round_state(
    payload: bytes, client: ClientSession, server: ServerSession
) -> tuple[int, int, int]:
    """Rebuild two *fresh* sessions into the snapshotted state.

    Returns ``(rounds, continuation_candidates, continuation_accepted)``
    so the protocol loop continues its counters where they stopped.
    Raises :class:`~repro.exceptions.ProtocolError` on a payload that is
    malformed or impossible for these two files; the sessions are left
    untouched in that case.
    """
    server_length = len(server.data)
    reader = VarintReader(payload, ProtocolError)
    rounds = reader.uint()
    continuation_candidates = reader.uint()
    continuation_accepted = reader.uint()
    fingerprint = reader.blob()
    server_tracker = _decode_tracker(reader, server_length)
    client_tracker = _decode_tracker(reader, server_length)
    entries = reader.table(3)
    reader.end()
    starts, lengths, sources = entries.T
    check_inside(starts, lengths, server_length, 1, "map entry")
    check_inside(sources, lengths, len(client.data), 1, "map source")

    # Replay the handshake's effects from local knowledge: the lengths
    # both sides exchanged are the lengths of the files they still hold.
    server.set_client_length(len(client.data))
    client.process_handshake(fingerprint, server_length)
    _restore_tracker(server.tracker, server_tracker)
    _restore_tracker(client._require_tracker(), client_tracker)

    file_map = client._require_map()
    for start, length, source in entries.tolist():
        file_map.add(start, length, source)
    client._source_after_end.set_many(starts + lengths, sources + lengths)
    client._source_at_start.set_many(starts, sources)
    return rounds, continuation_candidates, continuation_accepted
