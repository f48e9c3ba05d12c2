"""zdelta-style delta coder: separate op/literal streams, zlib entropy pass.

Format (after the 1-byte magic):

* varint: compressed op-stream length, then zlib(op stream)
* varint: compressed literal-stream length, then zlib(literal stream)

Op stream: ``0x00 len`` for ADD (literal bytes live in the literal stream)
and ``0x01 offset len`` for COPY, all varints: the token grammar of
:mod:`repro.io.varint` with the literals moved out.  Keeping literals
separate lets zlib model them independently of the instruction bytes —
the same trick that makes real zdelta beat single-stream coders.
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
from repro.io.varint import (
    TOKEN_COPY,
    TOKEN_LITERAL,
    VarintReader,
    encode_uvarint,
)

_MAGIC = 0x5A  # 'Z'


def _encode_streams(instructions: list[Instruction]) -> tuple[bytes, bytes]:
    ops = bytearray()
    literals = bytearray()
    for instruction in instructions:
        if isinstance(instruction, Copy):
            ops.append(TOKEN_COPY)
            ops += encode_uvarint(instruction.offset)
            ops += encode_uvarint(instruction.length)
        else:
            ops.append(TOKEN_LITERAL)
            ops += encode_uvarint(len(instruction.data))
            literals += instruction.data
    return bytes(ops), bytes(literals)


def _decode_streams(ops: bytes, literals: bytes) -> list[Instruction]:
    instructions: list[Instruction] = []
    reader = VarintReader(ops, DeltaFormatError)
    byte, uint = reader.byte, reader.uint
    literal_reader = VarintReader(literals, DeltaFormatError)
    while reader.offset < len(ops):
        opcode = byte()
        if opcode == TOKEN_COPY:
            offset = uint()
            instructions.append(Copy.decoded(offset, uint()))
        elif opcode == TOKEN_LITERAL:
            length = uint()
            if not length:
                raise DeltaFormatError("empty ADD instruction")
            instructions.append(Add(literal_reader.raw(length)))
        else:
            raise DeltaFormatError(f"unknown opcode {opcode:#x}")
    literal_reader.end()
    return instructions


def _zdelta_encode_cold(
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
    ops, literals = _encode_streams(instructions)
    compressed_ops = zlib.compress(ops, 9)
    compressed_literals = zlib.compress(literals, 9)
    out = bytearray([_MAGIC])
    out += encode_uvarint(len(compressed_ops))
    out += compressed_ops
    out += encode_uvarint(len(compressed_literals))
    out += compressed_literals
    return bytes(out)


def _pair_fingerprints(
    reference: bytes, target: bytes, matcher: ReferenceMatcher | None
) -> tuple[bytes, bytes]:
    """Content identities of a delta pair (matcher's, when prebuilt)."""
    from repro.hashing.strong import file_fingerprint

    old_fingerprint = (
        matcher.fingerprint
        if matcher is not None
        else file_fingerprint(reference)
    )
    return old_fingerprint, file_fingerprint(target)


def zdelta_encode(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    matcher: ReferenceMatcher | None = None,
    memo=None,
) -> bytes:
    """Encode ``target`` relative to ``reference``.

    ``memo``, a :class:`~repro.reuse.memo.DeltaMemoCache`, memoizes the
    encoded payload by content pair: a hit returns the byte-identical
    payload without matching or compressing anything.  Without one
    (``None``, the default) the payload is computed cold.
    """
    if memo is None:
        return _zdelta_encode_cold(
            reference, target, seed_length, matcher, memo=None
        )
    old_fingerprint, new_fingerprint = _pair_fingerprints(
        reference, target, matcher
    )
    return memo.payload(
        "zdelta",
        old_fingerprint,
        new_fingerprint,
        seed_length,
        lambda: _zdelta_encode_cold(
            reference, target, seed_length, matcher, memo=memo
        ),
    )


def _inflate(stream: bytes, what: str) -> bytes:
    try:
        return zlib.decompress(stream)
    except zlib.error as error:
        raise DeltaFormatError(f"{what} corrupt: {error}") from error


def zdelta_decode(reference: bytes, delta: bytes) -> bytes:
    """Reconstruct the target from ``reference`` and a zdelta payload."""
    if not delta or delta[0] != _MAGIC:
        raise DeltaFormatError("bad zdelta magic")
    reader = VarintReader(delta, DeltaFormatError, offset=1)
    ops = _inflate(reader.blob(), "op stream")
    literals = _inflate(reader.blob(), "literal stream")
    return apply_instructions(reference, _decode_streams(ops, literals))


def zdelta_size(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    matcher: ReferenceMatcher | None = None,
) -> int:
    """Size in bytes of the zdelta encoding (the paper's lower bound).

    Always memoized by content pair in the process-wide memo: a size
    probe is a pure measurement, so the runner's method-comparison grid
    never encodes the same ``(reference, target)`` pair twice.
    """
    from repro.reuse.memo import default_delta_memo

    return len(
        zdelta_encode(
            reference, target, seed_length=seed_length, matcher=matcher,
            memo=default_delta_memo(),
        )
    )
