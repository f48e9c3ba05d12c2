"""Unit and property tests for the bit-packed writer/reader."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer_produces_empty_payload(self):
        assert BitWriter().getvalue() == b""
        assert len(BitWriter()) == 0

    def test_single_bit(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x01"
        assert writer.bit_length == 1

    def test_width_zero_writes_nothing(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert len(writer) == 0

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(8, 3)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, -1)

    def test_bit_length_tracks_partial_bytes(self):
        writer = BitWriter()
        writer.write(5, 3)
        assert writer.bit_length == 3
        writer.write(1, 13)
        assert writer.bit_length == 16
        assert len(writer.getvalue()) == 2

    def test_final_byte_zero_padded(self):
        writer = BitWriter()
        writer.write(1, 1)
        (byte,) = writer.getvalue()
        assert byte == 1  # high bits padded with zeros

    def test_write_bytes_roundtrip(self):
        writer = BitWriter()
        writer.write_bytes(b"abc")
        reader = BitReader(writer.getvalue())
        assert reader.read_bytes(3) == b"abc"

    def test_write_bits_bulk(self):
        writer = BitWriter()
        writer.write_bits([1, 2, 3], 4)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3, 4) == [1, 2, 3]


class TestBitReader:
    def test_read_past_end_raises(self):
        reader = BitReader(b"\x01")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_remaining_bits(self):
        reader = BitReader(b"\xff\xff")
        assert reader.remaining_bits == 16
        reader.read(5)
        assert reader.remaining_bits == 11

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").read(-2)

    def test_read_bit(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1):
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(4)] == [1, 0, 1, 1]


class TestVarintInBitstream:
    def test_small_value_single_byte(self):
        writer = BitWriter()
        writer.write_uvarint(5)
        assert len(writer.getvalue()) == 1

    def test_large_value_roundtrip(self):
        writer = BitWriter()
        writer.write_uvarint(2**40 + 17)
        assert BitReader(writer.getvalue()).read_uvarint() == 2**40 + 17

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_uvarint(-1)

    def test_unaligned_varint(self):
        writer = BitWriter()
        writer.write(3, 3)
        writer.write_uvarint(300)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 3
        assert reader.read_uvarint() == 300


@given(
    st.lists(
        st.integers(min_value=1, max_value=32).flatmap(
            lambda w: st.tuples(
                st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w)
            )
        ),
        max_size=200,
    )
)
def test_arbitrary_sequences_roundtrip(items):
    """Any sequence of (value, width) pairs survives a write/read cycle."""
    writer = BitWriter()
    for value, width in items:
        writer.write(value, width)
    reader = BitReader(writer.getvalue())
    for value, width in items:
        assert reader.read(width) == value


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=50))
def test_varint_sequences_roundtrip(values):
    writer = BitWriter()
    for value in values:
        writer.write_uvarint(value)
    reader = BitReader(writer.getvalue())
    for value in values:
        assert reader.read_uvarint() == value


@given(st.binary(max_size=300))
def test_bytes_roundtrip(data):
    writer = BitWriter()
    writer.write_bytes(data)
    assert BitReader(writer.getvalue()).read_bytes(len(data)) == data


@given(
    st.integers(min_value=0, max_value=7),
    st.lists(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda w: st.tuples(
                st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w)
            )
        ),
        max_size=60,
    ),
)
def test_variable_width_batches_match_scalar_calls(offset, items):
    """write_many/read_many with one width per value are bit-exact with
    per-value write/read, at any starting bit offset."""
    values = [value for value, _width in items]
    widths = [width for _value, width in items]
    scalar, batched = BitWriter(), BitWriter()
    for writer in (scalar, batched):
        writer.write(0, offset)
    for value, width in items:
        scalar.write(value, width)
    batched.write_many(values, widths)
    assert batched.getvalue() == scalar.getvalue()
    assert batched.bit_length == scalar.bit_length
    reader = BitReader(scalar.getvalue())
    reader.read(offset)
    assert reader.read_many(len(widths), widths).tolist() == values


def test_write_many_rejects_bad_widths():
    with pytest.raises(ValueError, match="does not fit"):
        BitWriter().write_many([1, 8], [1, 3])
    with pytest.raises(ValueError, match="one width per value"):
        BitWriter().write_many([1, 2], [4])
    with pytest.raises(ValueError, match=r"\[0, 64\]"):
        BitWriter().write_many([1], -1)
