"""Client-side block signatures for the rsync algorithm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import PrefixHasher
from repro.hashing.strong import strong_digest

#: rsync transmits the 4-byte rolling checksum plus 2 bytes of the strong
#: hash per block ("only two bytes of the MD4 hash are used since this
#: provides sufficient power").
DEFAULT_STRONG_BYTES = 2
ROLLING_BYTES = 4

#: Identity-table hasher: its packed 32-bit hash ``a | (b << 16)`` is
#: rsync's plain Adler checksum, with ``a = sum(x[j])`` and
#: ``b = sum((L - j) * x[j])``, both mod ``2**16``.
PLAIN_ADLER = DecomposableAdler.identity()


@dataclass(frozen=True)
class BlockSignature:
    """Signature of one client block."""

    index: int
    length: int
    rolling: int
    strong: bytes


def compute_signatures(
    data: bytes,
    block_size: int,
    strong_bytes: int = DEFAULT_STRONG_BYTES,
    salt: bytes = b"",
) -> list[BlockSignature]:
    """Split ``data`` into blocks of ``block_size`` and sign each one.

    The final block may be shorter; rsync signs it too so a common file
    tail can still be matched.  The rolling checksums of all blocks come
    from one :meth:`~repro.hashing.scan.PrefixHasher.block_pairs` pass.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    starts = np.arange(0, len(data), block_size)
    lengths = np.minimum(block_size, len(data) - starts)
    rolling = PrefixHasher(data, PLAIN_ADLER).block_pairs(starts, lengths)
    return [
        BlockSignature(
            index=index,
            length=length,
            rolling=checksum,
            strong=strong_digest(
                data[start : start + length], nbytes=strong_bytes, salt=salt
            ),
        )
        for index, (start, length, checksum) in enumerate(
            zip(starts.tolist(), lengths.tolist(), rolling.tolist())
        )
    ]


def signature_wire_bytes(
    signatures: list[BlockSignature], strong_bytes: int = DEFAULT_STRONG_BYTES
) -> int:
    """Bytes the client sends for its signatures (excluding tiny header)."""
    return len(signatures) * (ROLLING_BYTES + strong_bytes)
