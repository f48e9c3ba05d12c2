"""Checksummed message framing: length + CRC32 per frame.

The simulated channel normally hands payloads to the peer verbatim, which
models a lossless ordered transport.  Under fault injection that is no
longer a safe assumption, so the faulty channel wraps every payload in a
frame that makes corruption *detectable*:

    +----------------+----------------+-----------------+
    | length (4 B BE) | crc32 (4 B BE) | payload (length) |
    +----------------+----------------+-----------------+

Any bit-flip — in the header or the payload — or any truncation fails
either the length check or the CRC and raises
:class:`~repro.exceptions.FrameCorruptionError` at the receiver, turning
silent corruption into a recoverable protocol event.

Framing bytes are deliberately *not* charged to
:class:`~repro.net.metrics.TransferStats`: the 8-byte overhead is a wash
across every compared method, and keeping the accounting identical to the
unframed channel means fault-injected benchmark rows stay directly
comparable to clean ones.
"""

from __future__ import annotations

import struct
import zlib

from repro.exceptions import FrameCorruptionError
from repro.io.varint import VarintReader, encode_uvarint

_HEADER = struct.Struct(">II")

#: Bytes of framing overhead prepended to every payload.
FRAME_OVERHEAD = _HEADER.size


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length + CRC32 header."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(frame: bytes) -> bytes:
    """Unwrap one frame, raising :class:`FrameCorruptionError` if mangled."""
    if len(frame) < FRAME_OVERHEAD:
        raise FrameCorruptionError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{FRAME_OVERHEAD}-byte header"
        )
    length, crc = _HEADER.unpack_from(frame)
    payload = frame[FRAME_OVERHEAD:]
    if length != len(payload):
        raise FrameCorruptionError(
            f"frame announces {length} payload bytes but carries "
            f"{len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameCorruptionError("frame payload fails its CRC32 check")
    return payload


# ----------------------------------------------------------------------
# Multiplexed batches (the pipelined collection's wire unit)
# ----------------------------------------------------------------------
#
# A pipelined collection carries many per-file sessions (*lanes*) over ONE
# shared channel.  Each shared send is one *batch* in one direction, and
# it carries every in-flight lane's whole next *run*: the lane's
# consecutive messages in that direction.  Both ends know which lanes are
# active and in which order they joined (files join in manifest order as
# earlier ones finish), so stream ids, rounds and sequence numbers are
# implicit.  A batch carries only what the receiver cannot derive::
#
#     presence bitmap ((lanes + 7) // 8 bytes, little-endian; bit i set
#                      when active lane i sends in this batch)
#     | per present lane: run length (uvarint), then bit_length
#                         (uvarint) per message
#     | payloads ((bit_length + 7) // 8 bytes each), in the same order
#
# The payload's byte length is derived from ``bit_length`` (the channel
# enforces ``0 <= 8*len - bits < 8``), so no separate length field is
# spent.  Like the CRC framing above, mux header bytes are *overhead*
# around untouched protocol payloads: the scheduler accounts them
# separately (``mux_overhead_bytes``) instead of charging them to any
# per-file phase bucket.

#: One lane's run in a batch: ``(bit_length, payload)`` per message.
MuxRun = list[tuple[int, bytes]]


def encode_mux_batch(runs: list[MuxRun]) -> bytes:
    """Pack one batch; ``runs[i]`` is active lane ``i``'s run, ``[]``
    for a lane that sends nothing in it."""
    bitmap = 0
    header = bytearray()
    payloads = bytearray()
    for lane, run in enumerate(runs):
        if not run:
            continue
        bitmap |= 1 << lane
        header += encode_uvarint(len(run))
        for bit_length, payload in run:
            if (len(payload) * 8 - bit_length) not in range(8):
                raise ValueError(
                    f"bit_length={bit_length} inconsistent with a "
                    f"{len(payload)}-byte payload"
                )
            header += encode_uvarint(bit_length)
            payloads += payload
    width = (len(runs) + 7) // 8
    return bitmap.to_bytes(width, "little") + bytes(header) + bytes(payloads)


def decode_mux_batch(batch: bytes, lanes: int) -> list[MuxRun]:
    """Inverse of :func:`encode_mux_batch` for a receiver with ``lanes``
    active lanes.

    Raises :class:`FrameCorruptionError` on truncation, trailing garbage
    or any length the batch cannot hold — a mangled batch must never
    demultiplex silently.
    """
    if lanes < 0:
        raise ValueError(f"lanes must be non-negative, got {lanes}")
    width = (lanes + 7) // 8
    if len(batch) < width:
        raise FrameCorruptionError(
            f"mux batch of {len(batch)} bytes is shorter than the "
            f"{width}-byte presence bitmap"
        )
    bitmap = int.from_bytes(batch[:width], "little")
    if bitmap >> lanes:
        raise FrameCorruptionError(
            f"presence bitmap marks lanes beyond the {lanes} active"
        )
    reader = VarintReader(batch, FrameCorruptionError, offset=width)
    run_bits: list[list[int]] = []
    for lane in range(lanes):
        bits: list[int] = []
        run_bits.append(bits)
        if not bitmap >> lane & 1:
            continue
        count = reader.uint()
        # Every message spends at least one header byte, so a run
        # longer than the bytes left is corrupt before it is read.
        if not 0 < count <= reader.remaining:
            raise FrameCorruptionError(
                f"lane {lane} announces a run of {count} messages "
                f"with {reader.remaining} bytes left"
            )
        for _ in range(count):
            bits.append(reader.uint())
    runs: list[MuxRun] = []
    for bits in run_bits:
        runs.append([(n, reader.raw((n + 7) // 8)) for n in bits])
    reader.end()
    return runs


def mux_overhead_bytes(batch: bytes, runs: list[MuxRun]) -> int:
    """Header bytes the batch spends beyond its protocol payloads."""
    return len(batch) - sum(
        len(payload) for run in runs for _bits, payload in run
    )
