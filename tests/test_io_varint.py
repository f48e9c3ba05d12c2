"""Tests for the byte-oriented varints, the bounded reader and the
COPY/ADD token codec."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DeltaFormatError, ProtocolError
from repro.io import decode_uvarint, encode_uvarint, uvarint_size
from repro.io.varint import (
    MAX_FIELD,
    VarintReader,
    decode_token_stream,
    encode_token_stream,
)


class TestEncodeUvarint:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"

    def test_one_byte_boundary(self):
        assert encode_uvarint(127) == b"\x7f"
        assert len(encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_continuation_bits(self):
        encoded = encode_uvarint(300)
        assert encoded[0] & 0x80  # continuation set
        assert not encoded[-1] & 0x80  # final byte clear


class TestDecodeUvarint:
    def test_with_offset(self):
        payload = b"\xff" + encode_uvarint(1000)
        value, end = decode_uvarint(payload, 1)
        assert value == 1000
        assert end == len(payload)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80", 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"", 0)

    def test_overlong_raises(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80" * 10 + b"\x01", 0)


class TestUvarintSize:
    def test_matches_encoding(self):
        for value in (0, 1, 127, 128, 16383, 16384, 2**32, 2**60):
            assert uvarint_size(value) == len(encode_uvarint(value))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uvarint_size(-5)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip(value):
    encoded = encode_uvarint(value)
    decoded, end = decode_uvarint(encoded, 0)
    assert decoded == value
    assert end == len(encoded)
    assert uvarint_size(value) == len(encoded)


class TestVarintReader:
    def test_fields_in_order(self):
        data = encode_uvarint(300) + b"\x03abc" + b"\x03h\xc3\xa9"
        reader = VarintReader(data, ProtocolError)
        assert reader.uint() == 300
        assert reader.blob() == b"abc"
        assert reader.remaining == 4
        assert reader.text() == "h\u00e9"
        reader.end()

    @pytest.mark.parametrize(
        "data,read,reason",
        [
            pytest.param(b"\x80", "uint", "malformed", id="truncated"),
            pytest.param(encode_uvarint(MAX_FIELD + 1), "uint", "range",
                         id="out-of-range"),
            pytest.param(b"\x05ab", "blob", "truncated", id="short-blob"),
            pytest.param(b"\x01\xff", "text", "UTF-8", id="bad-text"),
            pytest.param(b"\x7f\x01", "table", "count", id="big-table"),
            pytest.param(b"", "byte", "truncated", id="no-byte"),
        ],
    )
    def test_errors_are_the_given_type(self, data, read, reason):
        reader = VarintReader(data, DeltaFormatError)
        with pytest.raises(DeltaFormatError, match=reason):
            getattr(reader, read)(*((1,) if read == "table" else ()))

    def test_trailing_bytes_refused(self):
        reader = VarintReader(b"\x01\x02", ProtocolError)
        reader.uint()
        with pytest.raises(ProtocolError, match="trailing"):
            reader.end()


_TOKENS = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=20),
        st.tuples(
            st.integers(0, MAX_FIELD), st.integers(0, MAX_FIELD)
        ),
    ),
    max_size=12,
)


class TestTokenStream:
    @given(tokens=_TOKENS)
    def test_roundtrip(self, tokens):
        encoded = encode_token_stream(tokens)
        assert decode_token_stream(encoded, 2, DeltaFormatError) == tokens

    def test_wire_layout(self):
        assert encode_token_stream([b"ab", (5,)]) == b"\x00\x02ab\x01\x05"

    @pytest.mark.parametrize(
        "data,reason",
        [
            pytest.param(b"\x00\x00", "empty literal", id="empty-literal"),
            pytest.param(b"\x00\x03ab", "truncated", id="short-literal"),
            pytest.param(b"\x01\x05", "malformed", id="missing-field"),
            pytest.param(b"\x02", "unknown", id="unknown-kind"),
        ],
    )
    def test_malformed_streams_raise_the_given_error(self, data, reason):
        with pytest.raises(DeltaFormatError, match=reason):
            decode_token_stream(data, 2, DeltaFormatError)
