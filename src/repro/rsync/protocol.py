"""End-to-end rsync exchange over the simulated channel.

Wire layout:

* client → server, phase ``"signatures"``: varint block size, varint block
  count, then ``4 + strong_bytes`` bytes per block;
* server → client, phase ``"delta"``: zlib-compressed literal/reference
  token stream (rsync compresses this stream "using an algorithm similar
  to gzip"), preceded by the 16-byte whole-file checksum used to detect
  the unlikely double-checksum failure;
* on checksum failure the client first requests a *surgical repair*
  (phase ``"repair"``): a group-digest descent under a fresh salt
  localizes the divergent blocks and re-fetches only those
  (:func:`~repro.core.repair.integrity_endgame`, shared with multiround
  rsync; each signal is a whole byte here);
* only if repair cannot converge does the server fall back to sending
  the whole file (compressed) — recovery traffic charged to
  ``retransmitted_bits`` like every other recovery path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.repair import DEFAULT_REPAIR_FANOUT, integrity_endgame
from repro.exceptions import DeltaFormatError
from repro.hashing.strong import file_fingerprint
from repro.io.varint import (
    VarintReader,
    decode_token_stream,
    encode_token_stream,
    encode_uvarint,
)
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats
from repro.rsync.matcher import Literal, Reference, Token, apply_tokens, match_tokens
from repro.rsync.signature import (
    DEFAULT_STRONG_BYTES,
    ROLLING_BYTES,
    compute_signatures,
)

#: rsync's default block size (the tool's historical default is around
#: 700 bytes; the paper benchmarks "rsync with default block size").
DEFAULT_BLOCK_SIZE = 700


@dataclass
class RsyncResult:
    """Outcome of one rsync run.

    ``collisions_detected`` counts whole-file fingerprint rejections (0
    or 1 per run); ``repaired`` means the surgical repair rounds fixed
    the divergence in place, with ``repair_rounds`` descent roundtrips
    costing ``repair_bytes`` on the wire.  ``used_fallback`` still means
    a full compressed transfer happened (repair declined or failed).
    """

    reconstructed: bytes
    stats: TransferStats
    block_size: int
    used_fallback: bool
    collisions_detected: int = 0
    repaired: bool = False
    repair_rounds: int = 0
    repair_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes


def encode_tokens(tokens: list[Token]) -> bytes:
    """Serialise and compress the server's token stream (one copy field:
    the block index)."""
    stream = [
        (token.index,) if isinstance(token, Reference) else token.data
        for token in tokens
    ]
    return zlib.compress(encode_token_stream(stream), 9)


def decode_tokens(payload: bytes) -> list[Token]:
    """Inverse of :func:`encode_tokens`."""
    try:
        raw = zlib.decompress(payload)
    except zlib.error as error:
        raise DeltaFormatError(f"token stream corrupt: {error}") from error
    return [
        Reference(token[0]) if isinstance(token, tuple) else Literal(token)
        for token in decode_token_stream(raw, 1, DeltaFormatError)
    ]


def _parse_signatures(payload: bytes) -> list:
    """Parse the client's signature message back into signature objects."""
    from repro.rsync.signature import BlockSignature

    reader = VarintReader(payload, DeltaFormatError)
    block_size = reader.uint()
    strong_bytes = reader.uint()
    remaining = reader.uint()
    signatures = []
    while reader.remaining:
        entry = reader.raw(ROLLING_BYTES + strong_bytes)
        signatures.append(
            BlockSignature(
                index=len(signatures),
                length=min(block_size, remaining),
                rolling=int.from_bytes(entry[:ROLLING_BYTES], "big"),
                strong=entry[ROLLING_BYTES:],
            )
        )
        remaining -= min(block_size, remaining)
    return signatures


def rsync_sync(
    old_data: bytes,
    new_data: bytes,
    block_size: int = DEFAULT_BLOCK_SIZE,
    strong_bytes: int = DEFAULT_STRONG_BYTES,
    channel: SimulatedChannel | None = None,
    salt: bytes = b"",
    repair: bool = True,
    repair_fanout: int = DEFAULT_REPAIR_FANOUT,
) -> RsyncResult:
    """Synchronise the client's ``old_data`` to the server's ``new_data``.

    Returns the reconstructed file (always equal to ``new_data``: the
    whole-file checksum catches the rare double-collision, answered by a
    surgical repair round or — when ``repair`` is off or cannot converge
    — the full-transfer fallback) along with exact transfer accounting.
    """
    if channel is None:
        channel = SimulatedChannel()

    # Client: sign blocks and send the signatures.
    signatures = compute_signatures(
        old_data, block_size, strong_bytes=strong_bytes, salt=salt
    )
    signature_payload = bytearray()
    signature_payload += encode_uvarint(block_size)
    signature_payload += encode_uvarint(strong_bytes)
    signature_payload += encode_uvarint(len(old_data))
    for signature in signatures:
        signature_payload += signature.rolling.to_bytes(ROLLING_BYTES, "big")
        signature_payload += signature.strong
    channel.send(
        Direction.CLIENT_TO_SERVER, bytes(signature_payload), phase="signatures"
    )

    # Server: parse signatures from the wire, match, and send the delta.
    received_signatures = _parse_signatures(
        channel.receive(Direction.CLIENT_TO_SERVER)
    )
    tokens = match_tokens(new_data, received_signatures, strong_bytes, salt=salt)
    delta_payload = file_fingerprint(new_data) + encode_tokens(tokens)
    channel.send(Direction.SERVER_TO_CLIENT, delta_payload, phase="delta")
    received = channel.receive(Direction.SERVER_TO_CLIENT)

    # Client: reconstruct, check, and repair or refetch on a mismatch.
    outcome = integrity_endgame(
        channel,
        apply_tokens(old_data, decode_tokens(received[16:]), block_size),
        new_data,
        received[:16],
        repair=repair,
        leaf_size=block_size,
        fanout=repair_fanout,
        packed_signals=False,
    )
    return RsyncResult(stats=channel.stats, block_size=block_size, **vars(outcome))
