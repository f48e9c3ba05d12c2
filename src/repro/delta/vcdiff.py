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

from repro.delta.encoder import _inflate
from repro.delta.instructions import Add, Copy, Instruction, apply_instructions
from repro.delta.matcher import (
    DEFAULT_SEED_LENGTH,
    ReferenceMatcher,
    compute_instructions,
)
from repro.exceptions import DeltaFormatError
from repro.io.varint import (
    VarintReader,
    decode_token_stream,
    encode_token_stream,
    encode_uvarint,
)

_MAGIC = 0x56  # 'V'


def _encode_body(instructions: list[Instruction]) -> bytes:
    """The shared token grammar; a COPY carries ``(address, length)``."""
    tokens = []
    here = 0  # number of target bytes produced so far
    for instruction in instructions:
        if isinstance(instruction, Copy):
            # Self-relative address: distance from the current target
            # position, zig-zag style (reference offsets near "here" are
            # common for aligned data and encode small).
            distance = here - instruction.offset
            zigzag = 2 * distance if distance >= 0 else -2 * distance - 1
            tokens.append((zigzag, instruction.length))
            here += instruction.length
        else:
            tokens.append(instruction.data)
            here += len(instruction.data)
    return encode_token_stream(tokens)


def _decode_body(body: bytes) -> list[Instruction]:
    instructions: list[Instruction] = []
    here = 0
    for token in decode_token_stream(body, 2, DeltaFormatError):
        if isinstance(token, tuple):
            zigzag, length = token
            distance = zigzag // 2 if zigzag % 2 == 0 else -(zigzag + 1) // 2
            instructions.append(Copy.decoded(here - distance, length))
            here += length
        else:
            instructions.append(Add(token))
            here += len(token)
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

    ``memo`` memoizes the encoded payload by content pair, like
    :func:`~repro.delta.encoder.zdelta_encode`; ``None`` computes cold.
    """
    from repro.delta.encoder import _pair_fingerprints

    if memo is None:
        return _vcdiff_encode_cold(
            reference, target, seed_length, matcher, memo=None
        )
    old_fingerprint, new_fingerprint = _pair_fingerprints(
        reference, target, matcher
    )
    return memo.payload(
        "vcdiff",
        old_fingerprint,
        new_fingerprint,
        seed_length,
        lambda: _vcdiff_encode_cold(
            reference, target, seed_length, matcher, memo=memo
        ),
    )


def vcdiff_decode(reference: bytes, delta: bytes) -> bytes:
    """Reconstruct the target from ``reference`` and a vcdiff payload."""
    if not delta or delta[0] != _MAGIC:
        raise DeltaFormatError("bad vcdiff magic")
    body = _inflate(
        VarintReader(delta, DeltaFormatError, offset=1).blob(), "vcdiff body"
    )
    return apply_instructions(reference, _decode_body(body))


def vcdiff_size(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    matcher: ReferenceMatcher | None = None,
) -> int:
    """Size in bytes of the vcdiff-style encoding.

    Always memoized by content pair in the process-wide memo, like
    :func:`~repro.delta.encoder.zdelta_size` — a size probe is a pure
    measurement, so the comparison grid never encodes a pair twice.
    """
    from repro.reuse.memo import default_delta_memo

    return len(
        vcdiff_encode(
            reference, target, seed_length=seed_length, matcher=matcher,
            memo=default_delta_memo(),
        )
    )
