"""Surgical repair rounds: localize and re-fetch divergent blocks.

When the whole-file fingerprint rejects a reconstruction, the divergence
is almost always a handful of blocks — one truncated hash that matched
the wrong content.  Retransmitting the entire file (the historical
fallback) pays O(file) to fix an O(block) problem.  This module instead
runs a group-digest descent in the spirit of the anti-entropy / recursive
shingling literature (Mitzenmacher & Morgan; Song & Trachtenberg):

1. both endpoints split the file into fixed ``leaf_size`` leaves and hash
   each with :func:`~repro.hashing.strong.strong_digest` under a *fresh*
   salt derived from the expected fingerprint — so whatever collision
   fooled the transfer cannot also fool the repair;
2. the client sends one :func:`~repro.hashing.strong.group_digest` per
   frontier segment (phase ``"repair"``); the server answers with a
   mismatch bitmap; mismatching segments split ``fanout``-ways and the
   descent recurses until every divergent *leaf* is isolated;
3. the server sends only the divergent leaves (compressed); the client
   splices them in and re-verifies the whole-file fingerprint.

Both endpoints derive the divergent leaf set from the same bitmaps, so
no block-request message is needed.  Everything rides the ordinary
channel accounting under the ``"repair"`` phase.

:func:`integrity_endgame` is the one fingerprint → repair → full-transfer
sequence every protocol finishes with: the core protocol, each broadcast
client, rsync and multiround rsync.  It does what the paper suggests for
a failed checksum ("the algorithm could be repeated with different
hashes, or we can simply transfer the entire file"), repeating only the
divergent blocks under a fresh salt.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.hashing.strong import file_fingerprint, group_digest, strong_digest
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction

PHASE_REPAIR = "repair"
PHASE_FALLBACK = "fallback"

#: Salt namespace for repair-round digests.  Mixing in the expected
#: fingerprint gives every repair session hashes independent of the ones
#: the colliding transfer used.
REPAIR_SALT_PREFIX = b"repro-repair/"

#: How many children a mismatching segment splits into per round.
DEFAULT_REPAIR_FANOUT = 2

#: Transmitted width of each segment group digest.  8 bytes keeps the
#: per-segment probe cheap while a false segment-match stays a ~2^-64
#: event — and the final whole-file fingerprint still backstops it.
REPAIR_DIGEST_BYTES = 8


@dataclass
class RepairResult:
    """Outcome of one repair exchange."""

    data: bytes
    rounds: int
    leaves_repaired: int
    bytes_fetched: int
    converged: bool


@dataclass
class IntegrityOutcome:
    """What :func:`integrity_endgame` left the client holding.

    ``collisions_detected`` counts whole-file fingerprint rejections (0
    or 1); ``repaired`` means the repair descent fixed the divergence in
    place, with ``repair_rounds`` descent roundtrips costing
    ``repair_bytes`` on the wire; ``used_fallback`` means the whole file
    was sent again.  Every protocol result (``SyncResult``,
    ``RsyncResult``, ``MultiroundResult``) inherits these fields.
    """

    reconstructed: bytes
    used_fallback: bool = False
    collisions_detected: int = 0
    repaired: bool = False
    repair_rounds: int = 0
    repair_bytes: int = 0


def repair_salt(expected_fingerprint: bytes) -> bytes:
    """The fresh per-session digest salt for a repair exchange."""
    return REPAIR_SALT_PREFIX + expected_fingerprint


def _leaf_digests(
    data: bytes, leaf_size: int, salt: bytes
) -> list[bytes]:
    return [
        strong_digest(data[start : start + leaf_size], nbytes=16, salt=salt)
        for start in range(0, len(data), leaf_size)
    ]


def _split(segment: tuple[int, int], fanout: int) -> list[tuple[int, int]]:
    """Split ``[a, b)`` into up to ``fanout`` near-equal child ranges."""
    a, b = segment
    count = b - a
    step = -(-count // fanout)  # ceil division
    return [(s, min(s + step, b)) for s in range(a, b, step)]


def repair_exchange(
    channel: SimulatedChannel,
    damaged: bytes,
    target: bytes,
    expected_fingerprint: bytes,
    leaf_size: int,
    fanout: int = DEFAULT_REPAIR_FANOUT,
    digest_bytes: int = REPAIR_DIGEST_BYTES,
) -> RepairResult:
    """Repair ``damaged`` toward ``target`` by descent over leaf digests.

    Requires ``len(damaged) == len(target)`` (a truncated-hash collision
    preserves lengths; anything else is not repairable this way — callers
    fall back to a full transfer).  Returns the repaired bytes plus the
    exchange accounting; ``converged`` is ``False`` when the descent could
    not localize the divergence (the caller must then fall back).
    """
    if len(damaged) != len(target):
        raise ValueError("repair requires equal-length damaged/target data")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    if not target:
        return RepairResult(damaged, 0, 0, 0, converged=False)

    salt = repair_salt(expected_fingerprint)
    client_leaves = _leaf_digests(damaged, leaf_size, salt)
    server_leaves = _leaf_digests(target, leaf_size, salt)
    leaf_count = len(server_leaves)

    segments = (
        _split((0, leaf_count), fanout) if leaf_count > 1 else [(0, 1)]
    )
    divergent: list[int] = []
    rounds = 0
    while segments:
        rounds += 1
        # Client: one truncated group digest per frontier segment.
        probe = b"".join(
            group_digest(client_leaves[a:b], nbytes=digest_bytes)
            for a, b in segments
        )
        channel.send(Direction.CLIENT_TO_SERVER, probe, PHASE_REPAIR)

        # Server: compare against its own digests, answer with a bitmap.
        received = channel.receive(Direction.CLIENT_TO_SERVER)
        bitmap = BitWriter()
        for position, (a, b) in enumerate(segments):
            claimed = received[
                position * digest_bytes : (position + 1) * digest_bytes
            ]
            bitmap.write_bit(
                group_digest(server_leaves[a:b], nbytes=digest_bytes)
                != claimed
            )
        channel.send(
            Direction.SERVER_TO_CLIENT, bitmap.getvalue(), PHASE_REPAIR,
            bits=bitmap.bit_length,
        )

        # Both sides advance identically from the bitmap.
        flags = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
        next_segments: list[tuple[int, int]] = []
        for a, b in segments:
            if not flags.read_bit():
                continue
            if b - a == 1:
                divergent.append(a)
            else:
                next_segments.extend(_split((a, b), fanout))
        segments = next_segments

    if not divergent:
        # Every segment digest agreed yet the fingerprint did not: the
        # divergence hides below the digest width.  Do not guess.
        return RepairResult(damaged, rounds, 0, 0, converged=False)

    # Server: ship only the divergent leaves, compressed, in index order.
    raw = b"".join(
        target[index * leaf_size : (index + 1) * leaf_size]
        for index in divergent
    )
    channel.send(
        Direction.SERVER_TO_CLIENT, zlib.compress(raw, 9), PHASE_REPAIR
    )

    # Client: splice and re-verify.
    fetched = zlib.decompress(channel.receive(Direction.SERVER_TO_CLIENT))
    patched = bytearray(damaged)
    cursor = 0
    for index in divergent:
        start = index * leaf_size
        end = min(start + leaf_size, len(target))
        patched[start:end] = fetched[cursor : cursor + (end - start)]
        cursor += end - start
    data = bytes(patched)
    converged = file_fingerprint(data) == expected_fingerprint
    return RepairResult(
        data=data,
        rounds=rounds,
        leaves_repaired=len(divergent),
        bytes_fetched=len(fetched),
        converged=converged,
    )


def integrity_endgame(
    channel: SimulatedChannel,
    reconstructed: bytes,
    target: bytes,
    expected_fingerprint: bytes,
    *,
    repair: bool,
    leaf_size: int,
    fanout: int,
    packed_signals: bool,
) -> IntegrityOutcome:
    """Check a reconstruction against the whole-file fingerprint and,
    if it does not match, repair it or fetch the file again.

    On a mismatch the client first asks for a repair (signal ``0x02``,
    phase ``"repair"``) and runs :func:`repair_exchange` over
    ``leaf_size`` leaves — only when ``repair`` is on and the lengths
    agree, since a truncated-hash collision preserves lengths and
    anything else (decode damage, truncation) is not repairable this
    way.  If that is not possible or does not converge, the client sends
    a NACK (``0x01``, phase ``"fallback"``) and the server the whole
    file compressed.  The NACK, that file and any repair descent that
    failed to converge are recovery traffic, so they are charged to
    ``retransmitted_bits``.  ``packed_signals`` charges each signal at
    the bits its code needs (2 for the repair signal, 1 for the NACK)
    instead of a whole byte.
    """
    outcome = IntegrityOutcome(reconstructed)
    if file_fingerprint(reconstructed) == expected_fingerprint:
        return outcome
    outcome.collisions_detected = 1

    def signal(code: int, phase: str) -> None:
        channel.send(
            Direction.CLIENT_TO_SERVER, bytes([code]), phase,
            bits=code.bit_length() if packed_signals else None,
        )
        channel.receive(Direction.CLIENT_TO_SERVER)

    if repair and target and len(reconstructed) == len(target):
        signal(2, PHASE_REPAIR)
        result = repair_exchange(
            channel, reconstructed, target, expected_fingerprint,
            leaf_size=leaf_size, fanout=fanout,
        )
        outcome.repair_rounds = result.rounds
        outcome.repair_bytes = channel.stats.bytes_in_phase(PHASE_REPAIR)
        if result.converged:
            outcome.reconstructed = result.data
            outcome.repaired = True
            return outcome
    outcome.used_fallback = True
    signal(1, PHASE_FALLBACK)
    channel.send(
        Direction.SERVER_TO_CLIENT, zlib.compress(target, 9), PHASE_FALLBACK
    )
    outcome.reconstructed = zlib.decompress(
        channel.receive(Direction.SERVER_TO_CLIENT)
    )
    channel.stats.reclassify_phase_as_retransmission(PHASE_FALLBACK)
    channel.stats.reclassify_phase_as_retransmission(PHASE_REPAIR)
    return outcome
