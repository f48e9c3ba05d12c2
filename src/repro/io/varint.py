"""Byte-oriented LEB128 varints, the bounded reader every byte decoder
uses, and the COPY/ADD token grammar of the delta streams.

:class:`VarintReader` is the one place that turns a bad varint, an
out-of-range field or a length beyond the bytes left into a typed error:
each decoder hands it the :class:`~repro.exceptions.ReproError` subclass
it raises.  The token grammar is shared by rsync (one copy field: the
block index), multiround (two: client start and length) and vcdiff (two:
zigzag address and length)::

    0x00 uvarint(length) literal-bytes     ADD, length >= 1
    0x01 uvarint{copy_fields}              COPY
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError

#: Largest field a reader accepts (keeps int64 arithmetic exact).
MAX_FIELD = (1 << 62) - 1

TOKEN_LITERAL = 0x00
TOKEN_COPY = 0x01

#: One token: the literal's bytes, or the copy's fields.
StreamToken = bytes | tuple[int, ...]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint value must be non-negative, got {value}")
    out = bytearray()
    while True:
        chunk = value & 0x7F
        value >>= 7
        out.append(chunk | (0x80 if value else 0))
        if not value:
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    value = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise ValueError("truncated uvarint")
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long")


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`encode_uvarint` uses for ``value``."""
    if value < 0:
        raise ValueError(f"uvarint value must be non-negative, got {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


class VarintReader:
    """Cursor over varint-framed bytes that raises only ``error``.

    Every length and count is checked against the bytes left before
    anything is read or allocated, and every field must stay at most
    :data:`MAX_FIELD`.
    """

    def __init__(
        self, data: bytes, error: type[ReproError], offset: int = 0
    ) -> None:
        self.data = data
        self.error = error
        self.offset = offset

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def uint(self) -> int:
        data, offset = self.data, self.offset
        if offset < len(data) and data[offset] < 0x80:
            self.offset = offset + 1  # one-byte fast path
            return data[offset]
        try:
            value, self.offset = decode_uvarint(data, offset)
        except ValueError as error:
            raise self.error(f"malformed varint: {error}") from None
        if value > MAX_FIELD:
            raise self.error("field out of range")
        return value

    def byte(self) -> int:
        """The next byte (an opcode)."""
        if self.offset >= len(self.data):
            raise self.error("truncated field")
        self.offset += 1
        return self.data[self.offset - 1]

    def raw(self, length: int) -> bytes:
        """The next ``length`` bytes, verbatim."""
        start = self.offset
        self.offset = start + length
        if self.offset > len(self.data):
            raise self.error("truncated field")
        return self.data[start : self.offset]

    def blob(self) -> bytes:
        """A length-prefixed byte field."""
        return self.raw(self.uint())

    def text(self) -> str:
        """A length-prefixed UTF-8 field."""
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as error:
            raise self.error(f"non-UTF-8 text: {error}") from None

    def table(self, columns: int) -> np.ndarray:
        """A count-prefixed table of ``columns`` varints per row."""
        count = self.uint()
        if count * columns > self.remaining:
            raise self.error("count exceeds the payload")
        fields = [self.uint() for _ in range(count * columns)]
        return np.asarray(fields, dtype=np.int64).reshape(count, columns)

    def end(self) -> None:
        """Refuse bytes after the last field."""
        if self.remaining:
            raise self.error(f"{self.remaining} trailing bytes")


def encode_token_stream(tokens: list[StreamToken]) -> bytes:
    """Serialise a token list (literal bytes or a copy's fields)."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, tuple):
            out.append(TOKEN_COPY)
            for field in token:
                out += encode_uvarint(field)
        else:
            out.append(TOKEN_LITERAL)
            out += encode_uvarint(len(token))
            out += token
    return bytes(out)


def decode_token_stream(
    data: bytes, copy_fields: int, error: type[ReproError]
) -> list[StreamToken]:
    """Inverse of :func:`encode_token_stream` for copies of
    ``copy_fields`` fields; malformed input raises ``error``."""
    reader = VarintReader(data, error)
    byte, uint, raw = reader.byte, reader.uint, reader.raw
    tokens: list[StreamToken] = []
    while reader.offset < len(data):
        kind = byte()
        if kind == TOKEN_COPY:
            copy = (uint(),)
            while len(copy) < copy_fields:
                copy += (uint(),)
            tokens.append(copy)
        elif kind == TOKEN_LITERAL:
            length = uint()
            if not length:
                raise error("empty literal token")
            tokens.append(raw(length))
        else:
            raise error(f"unknown token kind {kind:#x}")
    return tokens
