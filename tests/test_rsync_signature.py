"""Tests for rsync block signatures."""

from __future__ import annotations

import random

import pytest

from repro.hashing import DecomposableAdler
from repro.rsync import compute_signatures
from repro.rsync.signature import signature_wire_bytes


class TestComputeSignatures:
    def test_block_partition(self):
        signatures = compute_signatures(b"a" * 2500, 1000)
        assert [s.length for s in signatures] == [1000, 1000, 500]
        assert [s.index for s in signatures] == [0, 1, 2]

    def test_exact_multiple_has_no_tail(self):
        signatures = compute_signatures(b"a" * 2000, 1000)
        assert [s.length for s in signatures] == [1000, 1000]

    def test_empty_file(self):
        assert compute_signatures(b"", 700) == []

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            compute_signatures(b"abc", 0)

    def test_rolling_matches_adler(self):
        """Every block's checksum, the short tail's included, equals the
        scalar hash and the closed-form sums (both components wrap mod
        2**16 on the 700-byte random blocks)."""
        adler = DecomposableAdler.identity()
        for data, size in (
            (b"block content 123456" * 3, 25),
            (random.Random(5).randbytes(5000), 700),
        ):
            signatures = compute_signatures(data, size)
            assert sum(s.length for s in signatures) == len(data)
            for signature in signatures:
                block = data[signature.index * size :][: signature.length]
                pair = adler.hash_block(block)
                assert signature.rolling == pair.a | (pair.b << 16)
                a = sum(block) % 65536
                b = sum((len(block) - j) * x for j, x in enumerate(block)) % 65536
                assert signature.rolling == a | (b << 16)

    def test_strong_bytes_width(self):
        (signature,) = compute_signatures(b"data", 10, strong_bytes=4)
        assert len(signature.strong) == 4

    def test_salt_changes_strong_hash(self):
        (plain,) = compute_signatures(b"data", 10, salt=b"")
        (salted,) = compute_signatures(b"data", 10, salt=b"s")
        assert plain.strong != salted.strong
        assert plain.rolling == salted.rolling  # rolling hash is unsalted


class TestWireBytes:
    def test_six_bytes_per_block_default(self):
        """The paper: rsync transmits 6 bytes per block (4 rolling + 2
        strong)."""
        signatures = compute_signatures(b"x" * 7000, 700)
        assert signature_wire_bytes(signatures) == 10 * 6

    def test_custom_strong_width(self):
        signatures = compute_signatures(b"x" * 1400, 700, strong_bytes=8)
        assert signature_wire_bytes(signatures, strong_bytes=8) == 2 * 12
