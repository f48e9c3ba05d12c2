"""Min-hash sketches over content-defined shingles (DESIGN §17).

The similarity machinery follows Recursive Content-Dependent Shingling
(PAPERS.md): a file is cut into *content-defined* chunks — boundaries
fall where a rolling window hash matches a mask, so an insertion only
perturbs the chunks around it, never the whole partition — and the set
of chunk hashes is summarised by a fixed-width min-wise signature.

Two files' resemblance (Jaccard similarity of their shingle sets) is
then estimated as the fraction of signature slots that agree, and the
signature's band structure doubles as an LSH key so candidates are
found without comparing against every file
(:class:`~repro.reuse.similarity.SimilarityIndex`).

Everything here is deterministic: the hash family is derived from a
fixed seed, so signatures are stable across processes and runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import window_hashes

#: Rolling hasher that places chunk boundaries.  Seeded differently from
#: the delta matcher's ``_SEED_HASHER`` so boundary choice and match
#: candidates never correlate.
_SHINGLE_HASHER = DecomposableAdler(seed=0x511E)

#: Rolling window length used for boundary detection.
WINDOW = 16

#: A boundary fires when the low ``MASK_BITS`` of the window hash are all
#: ones — mean shingle length ≈ ``2**MASK_BITS`` bytes.
MASK_BITS = 6

#: Signature width: number of min-wise hash functions.
NUM_PERM = 64

#: Seed of the multiply-shift hash family behind the signatures.
_PARAM_SEED = 0x51E7C4

#: Slot value of an empty shingle set (nothing can hash above it).
EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)


def _hash_params() -> tuple[np.ndarray, np.ndarray]:
    """:data:`NUM_PERM` multiply-shift parameter pairs, deterministic."""
    rng = np.random.Generator(np.random.PCG64(_PARAM_SEED))
    # Odd multipliers make x -> a*x + b (mod 2**64) a bijection, so
    # distinct shingles never collide inside one hash function.
    a = rng.integers(1, 1 << 63, size=NUM_PERM, dtype=np.uint64) * 2 + 1
    b = rng.integers(0, 1 << 63, size=NUM_PERM, dtype=np.uint64)
    return a, b


#: The signatures' ``(a, b)`` parameter pair.
_PARAMS_A, _PARAMS_B = _hash_params()


def content_shingles(data: bytes) -> np.ndarray:
    """Distinct 64-bit hashes of ``data``'s content-defined chunks.

    Returns a sorted ``uint64`` array (a *set* of shingles: duplicates
    collapse, so the sketch sees content, not repetition counts).  Files
    shorter than one :data:`WINDOW` are a single shingle; empty input
    has none.
    """
    if not data:
        return np.empty(0, dtype=np.uint64)
    view = memoryview(data)
    if len(data) <= WINDOW:
        return np.array([_chunk_hash(view)], dtype=np.uint64)
    hashes = window_hashes(data, WINDOW, _SHINGLE_HASHER)
    mask = np.uint32((1 << MASK_BITS) - 1)
    # A boundary *ends* a chunk at the last byte of the matching window.
    cuts = (np.flatnonzero((hashes & mask) == mask) + WINDOW).tolist()
    starts = [0] + cuts
    ends = cuts + [len(data)]
    out = np.fromiter(
        (
            _chunk_hash(view[start:end])
            for start, end in zip(starts, ends)
            if end > start
        ),
        dtype=np.uint64,
    )
    return np.unique(out)


def _chunk_hash(chunk: memoryview) -> int:
    """64-bit chunk hash: crc32 of the bytes, mixed with the length."""
    return (zlib.crc32(chunk) << 32) ^ (len(chunk) * 0x9E3779B1 & 0xFFFFFFFF)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """Min-wise signature of a shingle set: ``min(a_i*x + b_i)`` per slot.

    :data:`NUM_PERM` slots, order- and multiplicity-independent: any
    permutation or repetition of ``shingles`` yields the same signature.
    An empty set signs as all :data:`EMPTY_SLOT`.
    """
    shingles = np.unique(np.asarray(shingles, dtype=np.uint64))
    if shingles.size == 0:
        return np.full(NUM_PERM, EMPTY_SLOT, dtype=np.uint64)
    # uint64 arithmetic wraps mod 2**64 — exactly the multiply-shift
    # family we want, one (NUM_PERM, num_shingles) block.
    values = (
        shingles[np.newaxis, :] * _PARAMS_A[:, np.newaxis]
        + _PARAMS_B[:, np.newaxis]
    )
    return values.min(axis=1)


@dataclass(frozen=True)
class MinHashSketch:
    """Signature plus the shingle count it was computed from."""

    signature: np.ndarray
    shingle_count: int

    @property
    def nbytes(self) -> int:
        """Memory footprint (cache budgeting)."""
        return int(self.signature.nbytes)


def sketch(data: bytes) -> MinHashSketch:
    """Content-defined min-hash sketch of ``data``."""
    shingles = content_shingles(data)
    return MinHashSketch(
        signature=minhash_signature(shingles),
        shingle_count=int(shingles.size),
    )


def estimate_resemblance(a: np.ndarray, b: np.ndarray) -> float:
    """Estimated Jaccard resemblance: fraction of agreeing slots.

    Unbiased for true min-hash signatures; two empty-set signatures
    agree everywhere (resemblance 1.0 by the empty-set convention).
    """
    if a.shape != b.shape:
        raise ValueError(
            f"signature widths differ: {a.shape} vs {b.shape}"
        )
    if a.size == 0:
        return 0.0
    return float(np.count_nonzero(a == b)) / float(a.size)
