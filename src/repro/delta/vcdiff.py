"""Simplified VCDIFF-style coder — the evaluation's second delta baseline.

Differences from the zdelta-style coder that make it slightly weaker (as
vcdiff is slightly weaker than zdelta in the paper's tables):

* instructions and literal bytes are interleaved in a single stream, so the
  entropy coder cannot model them separately;
* COPY addresses use self-relative ("here") encoding but share the stream;
* a single moderate-level zlib pass over the whole body.
"""

from __future__ import annotations

import zlib

from repro.delta.instructions import Add, Copy, Instruction, apply_instructions
from repro.delta.matcher import (
    DEFAULT_SEED_LENGTH,
    ReferenceMatcher,
    compute_instructions,
)
from repro.exceptions import DeltaFormatError
from repro.io.varint import decode_uvarint, encode_uvarint

_MAGIC = 0x56  # 'V'
_OP_ADD = 0x00
_OP_COPY = 0x01


def _encode_body(instructions: list[Instruction]) -> bytes:
    body = bytearray()
    here = 0  # number of target bytes produced so far
    for instruction in instructions:
        if isinstance(instruction, Copy):
            body.append(_OP_COPY)
            # Self-relative address: distance from the current target
            # position, zig-zag style (reference offsets near "here" are
            # common for aligned data and encode small).
            distance = here - instruction.offset
            zigzag = 2 * distance if distance >= 0 else -2 * distance - 1
            body += encode_uvarint(zigzag)
            body += encode_uvarint(instruction.length)
            here += instruction.length
        else:
            body.append(_OP_ADD)
            body += encode_uvarint(len(instruction.data))
            body += instruction.data
            here += len(instruction.data)
    return bytes(body)


def _decode_body(body: bytes) -> list[Instruction]:
    instructions: list[Instruction] = []
    position = 0
    here = 0
    while position < len(body):
        opcode = body[position]
        position += 1
        if opcode == _OP_COPY:
            zigzag, position = decode_uvarint(body, position)
            distance = zigzag // 2 if zigzag % 2 == 0 else -(zigzag + 1) // 2
            length, position = decode_uvarint(body, position)
            instructions.append(Copy(here - distance, length))
            here += length
        elif opcode == _OP_ADD:
            length, position = decode_uvarint(body, position)
            data = body[position : position + length]
            if len(data) != length:
                raise DeltaFormatError("vcdiff literal run truncated")
            position += length
            instructions.append(Add(data))
            here += length
        else:
            raise DeltaFormatError(f"unknown vcdiff opcode {opcode:#x}")
    return instructions


def _vcdiff_encode_cold(
    reference: bytes,
    target: bytes,
    seed_length: int,
    matcher: ReferenceMatcher | None,
    memo,
) -> bytes:
    instructions = compute_instructions(
        reference, target, seed_length=seed_length, matcher=matcher,
        memo=memo,
    )
    compressed = zlib.compress(_encode_body(instructions), 6)
    return bytes([_MAGIC]) + encode_uvarint(len(compressed)) + compressed


def vcdiff_encode(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    matcher: ReferenceMatcher | None = None,
    memo=None,
) -> bytes:
    """Encode ``target`` relative to ``reference`` in the VCDIFF-ish format.

    ``memo`` memoizes the encoded payload by content pair (tri-state,
    see :func:`~repro.delta.matcher.resolve_memo`).
    """
    from repro.delta.encoder import _pair_fingerprints
    from repro.delta.matcher import resolve_memo

    resolved = resolve_memo(memo)
    if resolved is None:
        return _vcdiff_encode_cold(
            reference, target, seed_length, matcher, memo=False
        )
    old_fingerprint, new_fingerprint = _pair_fingerprints(
        reference, target, matcher
    )
    return resolved.payload(
        "vcdiff",
        old_fingerprint,
        new_fingerprint,
        seed_length,
        lambda: _vcdiff_encode_cold(
            reference, target, seed_length, matcher, memo=resolved
        ),
    )


def vcdiff_decode(reference: bytes, delta: bytes) -> bytes:
    """Reconstruct the target from ``reference`` and a vcdiff payload."""
    if not delta or delta[0] != _MAGIC:
        raise DeltaFormatError("bad vcdiff magic")
    length, position = decode_uvarint(delta, 1)
    end = position + length
    if end > len(delta):
        raise DeltaFormatError("vcdiff body truncated")
    try:
        body = zlib.decompress(delta[position:end])
    except zlib.error as error:
        raise DeltaFormatError(f"vcdiff body corrupt: {error}") from error
    return apply_instructions(reference, _decode_body(body))


def vcdiff_size(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    matcher: ReferenceMatcher | None = None,
    memo=None,
) -> int:
    """Size in bytes of the vcdiff-style encoding.

    Always memoized by content pair (unless ``memo=False``), like
    :func:`~repro.delta.encoder.zdelta_size` — a size probe is a pure
    measurement, so the comparison grid never encodes a pair twice.
    """
    if memo is None:
        from repro.reuse.memo import default_delta_memo

        memo = default_delta_memo()
    return len(
        vcdiff_encode(
            reference, target, seed_length=seed_length, matcher=matcher,
            memo=memo,
        )
    )
