"""Greedy hash-chain matching of a target against a reference file.

This is the algorithmic core shared by the zdelta- and vcdiff-style coders:
index the reference by seed-length windows, then scan the target greedily,
extending candidate matches forward (and backward into pending literals)
and emitting COPY/ADD instructions.

Two scans produce byte-identical instruction lists, and the input picks
between them:

* :func:`_scan_vectorized` resolves the candidate range of *every*
  target position with one batched ``searchsorted`` pair, then walks a
  precomputed next-candidate jump table so the greedy loop touches only
  positions that can possibly start a match — candidate-free stretches
  are consumed as one batched literal run in O(1).
* :func:`_scan_scalar` is the per-position loop.  Its cost scales with
  literal bytes instead of target length, so a cheap sampled probe
  (:func:`_copy_dominated`) routes copy-dominated targets (small source
  edits) to it.  It is also the parity reference of the batched scan.

The scalar loop pays two binary searches per unmatched byte in the
Python interpreter; on literal-heavy targets that is the dominant CPU
cost of the whole delta phase (see ``BENCH_delta.json``).
"""

from __future__ import annotations

import numpy as np

from repro.delta.instructions import Add, Copy, Instruction
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import (
    next_occupied_table,
    sort_with_order,
    sorted_range_pair,
    window_hashes,
)
from repro.hashing.strong import file_fingerprint

#: Hash function used for seed indexing only (never transmitted).
_SEED_HASHER = DecomposableAdler(seed=0x5EED)

DEFAULT_SEED_LENGTH = 16
DEFAULT_MAX_CANDIDATES = 8


def _common_prefix_length(a: memoryview, b: memoryview) -> int:
    """Length of the common prefix of two byte views, chunk-accelerated.

    Equal chunks are compared with one ``memcmp``; the first differing
    chunk is resolved without a per-byte loop by XOR-ing the chunks as
    little-endian integers — the lowest set bit's byte index is exactly
    the first mismatching byte.
    """
    limit = min(len(a), len(b))
    matched = 0
    chunk = 64
    while matched < limit:
        take = min(chunk, limit - matched)
        wa = a[matched : matched + take]
        wb = b[matched : matched + take]
        if wa == wb:
            matched += take
            chunk = min(chunk * 2, 1 << 16)
            continue
        diff = int.from_bytes(wa, "little") ^ int.from_bytes(wb, "little")
        return matched + (((diff & -diff).bit_length() - 1) >> 3)
    return matched


def _common_suffix_length(a: memoryview, b: memoryview, limit: int) -> int:
    """Length of the common suffix of two byte views, capped at ``limit``.

    Mirror image of :func:`_common_prefix_length`: equal tail chunks are
    one comparison each, and the first differing chunk is resolved via
    the *highest* set bit of the little-endian XOR (the differing byte
    closest to the end).
    """
    limit = min(limit, len(a), len(b))
    matched = 0
    chunk = 64
    while matched < limit:
        take = min(chunk, limit - matched)
        wa = a[len(a) - matched - take : len(a) - matched]
        wb = b[len(b) - matched - take : len(b) - matched]
        if wa == wb:
            matched += take
            chunk = min(chunk * 2, 1 << 16)
            continue
        diff = int.from_bytes(wa, "little") ^ int.from_bytes(wb, "little")
        return matched + take - 1 - ((diff.bit_length() - 1) >> 3)
    return matched


class ReferenceMatcher:
    """Seed index over a reference file.

    Window hashes of every reference position are computed once with
    numpy; lookups return candidate positions for a target seed hash.
    The matcher carries a content ``fingerprint`` so reuse checks and
    the :class:`~repro.parallel.cache.ReferenceIndexCache` identify it
    without ever re-reading the full reference bytes.
    """

    def __init__(
        self,
        reference: bytes,
        seed_length: int = DEFAULT_SEED_LENGTH,
        fingerprint: bytes | None = None,
    ) -> None:
        if seed_length <= 0:
            raise ValueError(f"seed_length must be positive, got {seed_length}")
        self.reference = reference
        self.seed_length = seed_length
        self.fingerprint = (
            file_fingerprint(reference) if fingerprint is None else fingerprint
        )
        self._sorted, self._order = sort_with_order(
            window_hashes(reference, seed_length, _SEED_HASHER)
        )

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays (cache budgeting)."""
        return int(self._order.nbytes + self._sorted.nbytes)

    def candidates(
        self, seed_hash: int, cap: int = DEFAULT_MAX_CANDIDATES
    ) -> np.ndarray:
        """Reference positions whose seed window hashes to ``seed_hash``.

        Returns a slice of the position-order index (ascending reference
        positions for equal hashes, capped at ``cap``) — an ndarray view,
        not a boxed-per-element Python list.
        """
        if self._sorted.size == 0:
            return self._order[:0]
        # A uint32 key keeps searchsorted on the fast path: a plain
        # Python int promotes — and therefore copies — the whole sorted
        # array to int64 on every call.
        key = np.uint32(seed_hash)
        lo = int(self._sorted.searchsorted(key, side="left"))
        hi = int(self._sorted.searchsorted(key, side="right"))
        if hi - lo > cap:
            hi = lo + cap
        return self._order[lo:hi]

    def candidate_ranges(
        self,
        target_hashes: np.ndarray,
        cap: int = DEFAULT_MAX_CANDIDATES,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[lo, hi)`` rows into the order index for *all* target hashes.

        One vectorised ``searchsorted`` pair replaces two binary searches
        per target position; ``hi`` is pre-capped so
        ``self._order[lo[i]:hi[i]]`` equals ``self.candidates(hash_i, cap)``
        for every position at once.
        """
        lo, hi = sorted_range_pair(self._sorted, target_hashes)
        np.minimum(hi, lo + cap, out=hi)
        return lo, hi


def _check_matcher(matcher: ReferenceMatcher, reference: bytes) -> None:
    """Reject a matcher built for different content.

    The identity check handles the hot path (same object passed back);
    otherwise the cached fingerprint is compared instead of running a
    full ``bytes.__eq__`` over the reference on every call.
    """
    if matcher.reference is reference:
        return
    if len(matcher.reference) != len(reference) or (
        matcher.fingerprint != file_fingerprint(reference)
    ):
        raise ValueError("matcher was built for a different reference")


def _resolve_matcher(reference: bytes, seed_length: int, cache):
    """A matcher for ``reference``: cached by default, private on opt-out."""
    if cache is False:
        return ReferenceMatcher(reference, seed_length)
    if cache is None:
        from repro.parallel.cache import default_reference_cache

        cache = default_reference_cache()
    return cache.matcher(reference, seed_length)


def compute_instructions(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    min_match: int | None = None,
    matcher: ReferenceMatcher | None = None,
    cache=None,
    memo=None,
) -> list[Instruction]:
    """Greedy COPY/ADD instruction list producing ``target`` from ``reference``.

    A prebuilt ``matcher`` for the same reference may be passed to amortise
    index construction across several targets; without one the process-wide
    :class:`~repro.parallel.cache.ReferenceIndexCache` is consulted so
    repeated references (version chains, sync retries, benchmark rounds)
    never re-sort the seed index.  Pass ``cache=False`` for a private
    uncached build, or a specific cache instance to use instead.

    ``memo``, a :class:`~repro.reuse.memo.DeltaMemoCache`, memoizes the
    finished instruction list by *content pair*: a hit skips hashing and
    matching entirely and is byte-identical to a fresh run.  Without one
    (``None``, the default) the list is computed cold.
    """
    if min_match is None:
        min_match = seed_length
    if min_match < 1:
        # min_match < 1 would let a zero-length "best match" emit an
        # empty COPY without advancing — an infinite loop, not a knob.
        raise ValueError(f"min_match must be >= 1, got {min_match}")

    if memo is not None:
        # Keyed purely by content identity and matching parameters.
        old_fingerprint = (
            matcher.fingerprint
            if matcher is not None
            else file_fingerprint(reference)
        )
        return memo.instructions(
            old_fingerprint,
            file_fingerprint(target),
            matcher.seed_length if matcher is not None else seed_length,
            min_match,
            lambda: _compute_cold(
                reference, target, seed_length, min_match, matcher, cache
            ),
        )
    return _compute_cold(
        reference, target, seed_length, min_match, matcher, cache
    )


def _compute_cold(
    reference: bytes,
    target: bytes,
    seed_length: int,
    min_match: int,
    matcher: ReferenceMatcher | None,
    cache,
) -> list[Instruction]:
    """The actual matching work (everything a memo hit skips)."""
    if matcher is None:
        matcher = _resolve_matcher(reference, seed_length, cache)
    else:
        _check_matcher(matcher, reference)

    target_view = memoryview(target)
    reference_view = memoryview(reference)
    target_hashes = window_hashes(target, matcher.seed_length, _SEED_HASHER)
    return _scan_vectorized(
        matcher, reference_view, target, target_view, target_hashes, min_match
    )


def _scan_scalar(
    matcher: ReferenceMatcher,
    reference_view: memoryview,
    target: bytes,
    target_view: memoryview,
    target_hashes: np.ndarray,
    min_match: int,
) -> list[Instruction]:
    """The per-position greedy loop (copy-dominated targets; the parity
    reference of :func:`_scan_vectorized`)."""
    instructions: list[Instruction] = []
    literals = bytearray()
    position = 0
    scan_limit = len(target) - matcher.seed_length

    def flush_literals() -> None:
        if literals:
            instructions.append(Add(bytes(literals)))
            literals.clear()

    while position < len(target):
        best_length = 0
        best_offset = -1
        if position <= scan_limit:
            seed_hash = int(target_hashes[position])
            for candidate in matcher.candidates(seed_hash).tolist():
                length = _common_prefix_length(
                    reference_view[candidate:], target_view[position:]
                )
                if length > best_length:
                    best_length = length
                    best_offset = candidate
        if best_length >= min_match:
            # Extend backward into pending literals.
            back = _common_suffix_length(
                reference_view[:best_offset],
                target_view[:position],
                limit=min(len(literals), best_offset),
            )
            if back:
                del literals[len(literals) - back :]
            flush_literals()
            instructions.append(Copy(best_offset - back, best_length + back))
            position += best_length
        else:
            literals.append(target[position])
            position += 1
    flush_literals()
    return instructions


#: Sample size of the copy-dominated probe in :func:`_scan_vectorized`.
_PROBE_SAMPLES = 64

#: Estimated novel fraction below which the scalar loop beats the batch.
#: Measured on a 2-CPU x86_64 container (random 8 KB and 48 KB
#: references, targets with 64-byte novel runs): the batch pays ~0.11 µs
#: per target position, the scalar loop ~5 µs per literal byte —
#: crossover near 2% novel bytes.  With 64 samples that is one miss at
#: most.
_PROBE_NOVEL_CUTOFF = 0.02


def _copy_dominated(matcher: ReferenceMatcher, target_hashes: np.ndarray) -> bool:
    """Whether the target looks copy-dominated (batching cannot pay off).

    The batched scan pays a fixed per-position cost resolving candidate
    ranges the greedy loop may never visit, while the scalar loop pays
    only per *literal* byte; a target that is nearly all COPY is
    therefore faster through the scalar loop.  Probing a few dozen
    evenly spaced positions estimates the novel fraction: novel bytes
    are candidate-free with overwhelming probability (a random 32-bit
    hash rarely occurs in the reference), copied bytes always have a
    candidate.  The miss budget mirrors the measured cost crossover.
    """
    positions = int(target_hashes.size)
    if positions <= _PROBE_SAMPLES:
        # Too small for the batch to amortise its setup at all.
        return True
    sample = target_hashes[:: positions // _PROBE_SAMPLES][:_PROBE_SAMPLES]
    lo = matcher._sorted.searchsorted(sample, side="left")
    safe = np.minimum(lo, matcher._sorted.size - 1)
    has = (lo < matcher._sorted.size) & (matcher._sorted[safe] == sample)
    misses = int(sample.size) - int(np.count_nonzero(has))
    return misses <= int(sample.size * _PROBE_NOVEL_CUTOFF)


def _scan_vectorized(
    matcher: ReferenceMatcher,
    reference_view: memoryview,
    target: bytes,
    target_view: memoryview,
    target_hashes: np.ndarray,
    min_match: int,
) -> list[Instruction]:
    """Batched greedy scan: same instruction stream, numpy-resolved lookups.

    All per-position candidate ranges come from one vectorised
    ``searchsorted`` pair; a has-candidate jump table lets the loop emit
    each candidate-free stretch as a single batched literal run, and an
    emitted COPY advances the cursor past every matched byte so nothing
    is rescanned or re-hashed.

    Copy-dominated targets (see :func:`_copy_dominated`) are delegated
    to the scalar loop, whose cost scales with literal bytes rather than
    target length — the instruction stream is identical either way.
    """
    n = len(target)
    instructions: list[Instruction] = []
    scan_positions = int(target_hashes.size)

    if scan_positions == 0 or matcher._sorted.size == 0:
        # No full seed window fits (or the reference indexes nothing):
        # the whole target is one literal run, exactly like the scalar
        # loop appending byte by byte and flushing once.
        if n:
            instructions.append(Add(bytes(target)))
        return instructions

    if _copy_dominated(matcher, target_hashes):
        return _scan_scalar(
            matcher, reference_view, target, target_view, target_hashes,
            min_match,
        )

    lo, hi = matcher.candidate_ranges(target_hashes)
    jump = next_occupied_table(hi > lo)
    order = matcher._order

    literals = bytearray()
    position = 0
    while position < n:
        if position >= scan_positions:
            # Tail shorter than one seed window: literal to the end.
            literals += target_view[position:]
            break
        nxt = int(jump[position])
        if nxt > position:
            # No position in [position, nxt) has any candidate, so none
            # can start a match: one batched literal run replaces
            # per-byte appends (and per-byte hash lookups).
            stop = nxt if nxt < scan_positions else n
            literals += target_view[position:stop]
            position = stop
            continue
        best_length = 0
        best_offset = -1
        for candidate in order[lo[position] : hi[position]].tolist():
            length = _common_prefix_length(
                reference_view[candidate:], target_view[position:]
            )
            if length > best_length:
                best_length = length
                best_offset = candidate
        if best_length >= min_match:
            back = _common_suffix_length(
                reference_view[:best_offset],
                target_view[:position],
                limit=min(len(literals), best_offset),
            )
            if back:
                del literals[len(literals) - back :]
            if literals:
                instructions.append(Add(bytes(literals)))
                literals.clear()
            instructions.append(Copy(best_offset - back, best_length + back))
            position += best_length
        else:
            literals.append(target[position])
            position += 1
    if literals:
        instructions.append(Add(bytes(literals)))
    return instructions
