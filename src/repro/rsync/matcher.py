"""Server-side rsync matching: slide a window over the current file.

The server compares the received rolling checksums against every offset of
``F_new`` (numpy precomputes the rolling checksum of all windows; the
Python loop only decides matches and emits tokens).  A rolling hit is
confirmed with the truncated strong hash before a block reference is
emitted — exactly rsync's two-level scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.hashing.scan import next_occupied_table, window_hashes
from repro.hashing.strong import strong_digest
from repro.rsync.signature import PLAIN_ADLER, BlockSignature


@dataclass(frozen=True)
class Literal:
    """A run of raw bytes in the server's delta stream."""

    data: bytes


@dataclass(frozen=True)
class Reference:
    """A reference to one of the client's signed blocks."""

    index: int


Token = Union[Literal, Reference]


def _rolling_table(
    signatures: list[BlockSignature],
) -> dict[int, dict[int, list[BlockSignature]]]:
    """Nested lookup: block length -> rolling checksum -> signatures."""
    table: dict[int, dict[int, list[BlockSignature]]] = {}
    for signature in signatures:
        table.setdefault(signature.length, {}).setdefault(
            signature.rolling, []
        ).append(signature)
    return table


def match_tokens(
    new_data: bytes,
    signatures: list[BlockSignature],
    strong_bytes: int,
    salt: bytes = b"",
) -> list[Token]:
    """Produce the literal/reference token stream encoding ``new_data``.

    Greedy left-to-right scan: at each offset try to match a signed block
    (longest block length first); on a confirmed match, jump past it.
    """
    if not signatures:
        return [Literal(new_data)] if new_data else []

    by_length = _rolling_table(signatures)
    # Precompute rolling checksums of every window, once per block length
    # (at most two lengths: the full block size and the short tail), then
    # reduce each to the positions whose checksum appears in the signature
    # set so the scan can jump between potential hits instead of advancing
    # byte by byte.
    n = len(new_data)
    rolling_at: dict[int, np.ndarray] = {}
    possible_hit = np.zeros(n, dtype=bool)
    for length, rolling_map in by_length.items():
        windows = window_hashes(new_data, length, PLAIN_ADLER)
        rolling_at[length] = windows
        wanted = np.fromiter(
            rolling_map.keys(), dtype=np.uint32, count=len(rolling_map)
        )
        possible_hit[: windows.size] |= np.isin(windows, wanted)
    # Jump table instead of a binary search per loop iteration: the next
    # offset whose rolling checksum can possibly match is an O(1) lookup.
    jump = next_occupied_table(possible_hit)
    lengths = sorted(by_length, reverse=True)

    tokens: list[Token] = []
    literals = bytearray()
    position = 0

    def flush() -> None:
        if literals:
            tokens.append(Literal(bytes(literals)))
            literals.clear()

    while position < n:
        next_hit = int(jump[position])
        if next_hit == n:
            literals += new_data[position:]
            break
        if next_hit > position:
            literals += new_data[position:next_hit]
            position = next_hit

        matched = None
        for length in lengths:
            windows = rolling_at[length]
            if position >= windows.size:
                continue
            candidates = by_length[length].get(int(windows[position]))
            if not candidates:
                continue
            window = new_data[position : position + length]
            window_strong = strong_digest(window, nbytes=strong_bytes, salt=salt)
            for signature in candidates:
                if signature.strong == window_strong:
                    matched = signature
                    break
            if matched is not None:
                break
        if matched is None:
            literals.append(new_data[position])
            position += 1
        else:
            flush()
            tokens.append(Reference(matched.index))
            position += matched.length
    flush()
    return tokens


def apply_tokens(
    old_data: bytes, tokens: list[Token], block_size: int
) -> bytes:
    """Client-side reconstruction from the token stream."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Reference):
            start = token.index * block_size
            out += old_data[start : start + block_size]
        else:
            out += token.data
    return bytes(out)
