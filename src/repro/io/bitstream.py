"""Bit-packed writer and reader.

``BitWriter`` accumulates values of explicit bit widths (MSB-first within
each value, bits packed LSB-first into bytes) and produces a ``bytes``
payload.  ``BitReader`` decodes such a payload.  The pair is used by the
protocol message codecs so transmitted message sizes reflect the exact
number of bits the paper's protocol would put on the wire.

The batched variants (``write_many``/``write_flags`` and
``read_many``/``read_flags``) move whole-round arrays of equal-width
values in one numpy pass — the per-value loop is what made map
construction the protocol bottleneck (DESIGN §13).  They are bit-exact
drop-ins for the equivalent sequence of scalar calls: ``np.packbits``
and ``np.unpackbits`` with ``bitorder="little"`` reproduce exactly the
LSB-first byte packing of :meth:`BitWriter.write`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import ProtocolError, TruncatedMessageError


class BitWriter:
    """Accumulates unsigned integers with explicit bit widths.

    Example::

        w = BitWriter()
        w.write(5, 3)        # three bits
        w.write(1, 1)        # one bit
        payload = w.getvalue()
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._pending_bits = 0

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buffer) + self._pending_bits

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self)

    def write(self, value: int, width: int) -> None:
        """Append ``value`` using exactly ``width`` bits.

        Raises ``ValueError`` if ``value`` does not fit in ``width`` bits.
        """
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._accumulator |= value << self._pending_bits
        self._pending_bits += width
        while self._pending_bits >= 8:
            self._buffer.append(self._accumulator & 0xFF)
            self._accumulator >>= 8
            self._pending_bits -= 8

    def write_bit(self, bit: int | bool) -> None:
        """Append a single bit."""
        self.write(1 if bit else 0, 1)

    def write_bits(self, values: Iterable[int], width: int) -> None:
        """Append each value in ``values`` using ``width`` bits."""
        for value in values:
            self.write(value, width)

    def _append_bit_array(self, bits: "np.ndarray") -> None:
        """Append a 0/1 ``uint8`` array of individual bits (LSB-first)."""
        if self._pending_bits:
            pending = (
                np.uint64(self._accumulator)
                >> np.arange(self._pending_bits, dtype=np.uint64)
            ) & np.uint64(1)
            bits = np.concatenate([pending.astype(np.uint8), bits])
        packed = np.packbits(bits, bitorder="little")
        full_bytes, remainder = divmod(int(bits.size), 8)
        self._buffer += packed[:full_bytes].tobytes()
        self._accumulator = int(packed[full_bytes]) if remainder else 0
        self._pending_bits = remainder

    def write_many(self, values, width) -> None:
        """Append every value in one numpy pass.

        ``width`` is one width for all values or one per value (each in
        ``[0, 64]``).  Bit-exact equivalent of
        ``for v, w in zip(values, widths): self.write(v, w)``.
        """
        values = np.asarray(values, dtype=np.uint64)
        widths = _widths(values.size, width)
        if values.size == 0:
            return
        overflow = (values >> widths.astype(np.uint64)).nonzero()[0]
        if overflow.size:
            at = int(overflow[0])
            raise ValueError(
                f"value {int(values[at])} does not fit in {int(widths[at])} bits"
            )
        columns = np.arange(int(widths.max()), dtype=np.int64)
        bits = (
            (values[:, None] >> columns.astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint8)
        self._append_bit_array(bits[columns < widths[:, None]])

    def write_flags(self, flags) -> None:
        """Append one bit per element (batched :meth:`write_bit`)."""
        arr = np.asarray(flags)
        if arr.size == 0:
            return
        self._append_bit_array((arr != 0).astype(np.uint8))

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes (8 bits each, in order)."""
        for byte in data:
            self.write(byte, 8)

    def write_uvarint(self, value: int) -> None:
        """Append ``value`` as a LEB128-style varint (7 data bits/byte)."""
        if value < 0:
            raise ValueError(f"uvarint value must be non-negative, got {value}")
        while True:
            chunk = value & 0x7F
            value >>= 7
            self.write(chunk | (0x80 if value else 0), 8)
            if not value:
                return

    def getvalue(self) -> bytes:
        """Return the accumulated payload, zero-padding the final byte."""
        result = bytes(self._buffer)
        if self._pending_bits:
            result += bytes([self._accumulator & 0xFF])
        return result


class BitReader:
    """Decodes a payload produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # in bits

    @property
    def remaining_bits(self) -> int:
        """Number of unread bits (including any final-byte padding)."""
        return 8 * len(self._data) - self._position

    def read(self, width: int) -> int:
        """Read an unsigned integer of ``width`` bits.

        Raises :class:`~repro.exceptions.TruncatedMessageError` if fewer
        than ``width`` bits remain.
        """
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if width > self.remaining_bits:
            raise TruncatedMessageError(
                f"requested {width} bits but only {self.remaining_bits} remain"
            )
        value = 0
        produced = 0
        while produced < width:
            byte_index, bit_offset = divmod(self._position, 8)
            take = min(8 - bit_offset, width - produced)
            chunk = (self._data[byte_index] >> bit_offset) & ((1 << take) - 1)
            value |= chunk << produced
            produced += take
            self._position += take
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read(1)

    def read_bits(self, count: int, width: int) -> list[int]:
        """Read ``count`` values of ``width`` bits each."""
        return [self.read(width) for _ in range(count)]

    def _read_bit_array(self, total_bits: int) -> "np.ndarray":
        """Consume ``total_bits`` bits as a 0/1 ``uint8`` array."""
        if total_bits > self.remaining_bits:
            raise TruncatedMessageError(
                f"requested {total_bits} bits but only "
                f"{self.remaining_bits} remain"
            )
        start_byte, offset = divmod(self._position, 8)
        end_byte = (self._position + total_bits + 7) // 8
        raw = np.frombuffer(
            self._data, dtype=np.uint8, count=end_byte - start_byte,
            offset=start_byte,
        )
        bits = np.unpackbits(raw, bitorder="little")[
            offset : offset + total_bits
        ]
        self._position += total_bits
        return bits

    def read_many(self, count: int, width) -> "np.ndarray":
        """Read ``count`` values as a uint64 array, in one numpy pass.

        ``width`` is one width for all values or one per value (each in
        ``[0, 64]``).  Bit-exact equivalent of
        ``[self.read(w) for w in widths]``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        widths = _widths(count, width)
        bits = self._read_bit_array(int(widths.sum()))
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        columns = np.arange(int(widths.max()), dtype=np.int64)
        matrix = np.zeros((count, columns.size), dtype=np.uint64)
        matrix[columns < widths[:, None]] = bits
        return (matrix << columns.astype(np.uint64)).sum(
            axis=1, dtype=np.uint64
        )

    def read_flags(self, count: int) -> "np.ndarray":
        """Read ``count`` single bits as a boolean array."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._read_bit_array(count).astype(bool)

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` raw bytes."""
        return bytes(self.read(8) for _ in range(count))

    def read_uvarint(self) -> int:
        """Read a varint written by :meth:`BitWriter.write_uvarint`."""
        value = 0
        shift = 0
        while True:
            byte = self.read(8)
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise ProtocolError("uvarint too long")


def pack_messages(values, widths, counts) -> tuple[list[bytes], np.ndarray]:
    """Write many messages in one pass; return them and their bit counts.

    Message ``i`` is the next ``counts[i]`` values at their ``widths``
    (one width for all, or one per value), byte-padded on its own:
    exactly what ``BitWriter().write_many`` of those values would give.
    A stacked round serialises every lane's message this way and sends
    each on the lane's own channel.
    """
    counts = np.asarray(counts, dtype=np.int64)
    values = np.asarray(values, dtype=np.uint64)
    widths = _widths(values.size, widths)
    ends = np.cumsum(counts)
    total_bits = np.concatenate(([0], np.cumsum(widths)))
    bits = total_bits[ends] - total_bits[ends - counts]
    padding = -bits % 8
    writer = BitWriter()
    writer.write_many(
        np.insert(values, ends, 0), np.insert(widths, ends, padding)
    )
    data = writer.getvalue()
    offsets = np.concatenate(([0], np.cumsum((bits + padding) // 8))).tolist()
    return [data[lo:hi] for lo, hi in zip(offsets, offsets[1:])], bits


def unpack_messages(payloads, widths, counts) -> tuple[np.ndarray, list[int]]:
    """Read many messages in one pass: the inverse of :func:`pack_messages`.

    Returns the values of every message, concatenated, and the indices
    of the payloads too short for their values (``None`` counts as
    empty); those read as zeros, and the caller fails their lanes with
    :class:`~repro.exceptions.TruncatedMessageError`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    widths = _widths(int(counts.sum()), widths)
    if widths.size == 0:
        return np.zeros(0, dtype=np.uint64), []
    ends = np.cumsum(counts)
    total_bits = np.concatenate(([0], np.cumsum(widths)))
    needed = (total_bits[ends] - total_bits[ends - counts]).tolist()
    short = []
    chunks = []
    for index, (payload, bits) in enumerate(zip(payloads, needed)):
        if payload is None or 8 * len(payload) < bits:
            short.append(index)
            payload = bytes(-(-bits // 8))
        chunks.append(payload)
    sizes = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
    base = 8 * (np.cumsum(sizes) - sizes) - total_bits[ends - counts]
    positions = total_bits[:-1] + np.repeat(base, counts)
    stream = np.unpackbits(
        np.frombuffer(b"".join(chunks), dtype=np.uint8), bitorder="little"
    )
    columns = np.arange(int(widths.max()), dtype=np.int64)
    used = columns < widths[:, None]
    bits = stream[np.where(used, positions[:, None] + columns, 0)] & used
    values = (bits.astype(np.uint64) << columns.astype(np.uint64)).sum(
        axis=1, dtype=np.uint64
    )
    return values, short


def _widths(count: int, width) -> "np.ndarray":
    """One width per value from ``width`` (an int or an array of them)."""
    widths = np.asarray(width, dtype=np.int64)
    if widths.ndim == 0:
        widths = np.full(count, widths)
    if widths.shape != (count,):
        raise ValueError(f"need one width per value ({count})")
    if np.count_nonzero((widths < 0) | (widths > 64)):
        raise ValueError("widths must be in [0, 64]")
    return widths
