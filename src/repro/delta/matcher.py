"""Greedy hash-chain matching of a target against a reference file.

This is the algorithmic core shared by the zdelta- and vcdiff-style coders:
index the reference by seed-length windows, then scan the target greedily,
extending candidate matches forward (and backward into pending literals)
and emitting COPY/ADD instructions.

:func:`_scan_chunked` is the one scan.  It resolves candidate ranges a
chunk of target positions at a time — one batched ``searchsorted`` pair
plus a next-candidate jump table per chunk — so the greedy loop touches
only positions that can start a match and consumes each candidate-free
stretch as one literal run.  A chunk doubles while the cursor keeps
walking onto its end (literal-heavy targets cost a few numpy calls) and
restarts at :data:`_CHUNK_BASE` positions after a COPY jumps past it
(copy-dominated targets resolve only the positions the loop visits).

:func:`_scan_scalar` is the per-position loop with two binary searches
per unmatched byte.  Nothing in the product calls it: it is the parity
oracle the tests and benchmarks compare :func:`_scan_chunked` against,
instruction for instruction.
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


#: :meth:`ReferenceMatcher.candidate_ranges` searches every hash of a
#: batch up to this size, and filters larger batches through the
#: presence table first.  :func:`_scan_chunked`'s chunks start at 128
#: positions and double, so the filter serves chunks of 512 and more:
#: long literal stretches, where most positions have no candidate.
#: Building the table costs about as much as searching two or three
#: such chunks.  On a 2-CPU x86_64 container, replaying one update's
#: delta inputs of each ``perf/run.py`` workload, filtering 256-position
#: chunks too slowed fleet-broadcast's delta phase by 8% (most of its
#: matchers would build a table for a chunk or two), while this limit
#: cut binary-churn's candidate resolution to 0.70x and kept
#: gcc-release's and fleet-broadcast's within the replay's noise (3%).
_PRESENCE_MIN_POSITIONS = 256


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
        # The presence table (see candidate_ranges) has one flag per
        # value of the seed hashes' top bits: as many flags as _order
        # has bytes, rounded down to a power of two.  Built on the first
        # chunk that needs it.
        self._present_bits = max(int(self._order.nbytes).bit_length() - 1, 0)
        self._present: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays (cache budgeting).

        Counts the presence table whether or not it is built yet, so a
        cache's byte budget still holds once it is.
        """
        return int(
            self._order.nbytes
            + self._sorted.nbytes
            + (1 << self._present_bits)
        )

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

        Above :data:`_PRESENCE_MIN_POSITIONS` hashes, a presence table
        over the indexed hashes' top bits first admits only the
        positions that can have a candidate; the rest get the empty row
        ``lo == hi == 0`` without a search.
        """
        if target_hashes.size <= _PRESENCE_MIN_POSITIONS:
            lo, hi = sorted_range_pair(self._sorted, target_hashes)
        else:
            shift = np.uint32(32 - self._present_bits)
            if self._present is None:
                self._present = np.zeros(1 << self._present_bits, dtype=bool)
                self._present[self._sorted >> shift] = True
            # Every key is below the table size, so "clip" never clips;
            # it only skips the bounds check.
            admitted = np.flatnonzero(
                self._present.take(target_hashes >> shift, mode="clip")
            )
            lo = np.zeros(target_hashes.size, dtype=np.int64)
            hi = np.zeros(target_hashes.size, dtype=np.int64)
            lo[admitted], hi[admitted] = sorted_range_pair(
                self._sorted, target_hashes[admitted]
            )
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


def compute_instructions(
    reference: bytes,
    target: bytes,
    seed_length: int = DEFAULT_SEED_LENGTH,
    min_match: int | None = None,
    matcher: ReferenceMatcher | None = None,
    memo=None,
) -> list[Instruction]:
    """Greedy COPY/ADD instruction list producing ``target`` from ``reference``.

    A prebuilt ``matcher`` for the same reference may be passed to amortise
    index construction across several targets; without one the process-wide
    :class:`~repro.parallel.cache.ReferenceIndexCache` is consulted so
    repeated references (version chains, sync retries, benchmark rounds)
    never re-sort the seed index.

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
                reference, target, seed_length, min_match, matcher
            ),
        )
    return _compute_cold(reference, target, seed_length, min_match, matcher)


def _compute_cold(
    reference: bytes,
    target: bytes,
    seed_length: int,
    min_match: int,
    matcher: ReferenceMatcher | None,
) -> list[Instruction]:
    """The actual matching work (everything a memo hit skips)."""
    if matcher is None:
        from repro.parallel.cache import default_reference_cache

        matcher = default_reference_cache().matcher(reference, seed_length)
    else:
        _check_matcher(matcher, reference)

    target_view = memoryview(target)
    reference_view = memoryview(reference)
    target_hashes = window_hashes(target, matcher.seed_length, _SEED_HASHER)
    return _scan_chunked(
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
    """The per-position greedy loop: the parity oracle of
    :func:`_scan_chunked` (tests and benchmarks only)."""
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


#: Target positions resolved by the first chunk, and again after a COPY
#: jumps past a chunk's end.  Small enough that copy-dominated edits do
#: not resolve positions the greedy loop never visits; doubling from it
#: amortises the per-chunk numpy calls on literal-heavy targets.  On a
#: 2-CPU x86_64 container, over one update's delta inputs from each of
#: the four ``perf/run.py`` workloads, 128 was within 6% of the fastest
#: of 32, 64, 128, 256 and 512 on every workload.
_CHUNK_BASE = 128


def _scan_chunked(
    matcher: ReferenceMatcher,
    reference_view: memoryview,
    target: bytes,
    target_view: memoryview,
    target_hashes: np.ndarray,
    min_match: int,
) -> list[Instruction]:
    """Greedy scan over candidate ranges resolved a chunk at a time.

    When the cursor leaves the resolved chunk, the candidate ranges of
    the next ``size`` target positions come from one vectorised
    ``searchsorted`` pair, and a has-candidate jump table lets the loop
    emit each candidate-free stretch as a single batched literal run.
    ``size`` doubles when the cursor walked onto the chunk's end and
    returns to :data:`_CHUNK_BASE` when a COPY jumped past it.  An
    emitted COPY advances the cursor past every matched byte, so nothing
    is rescanned or re-hashed.  The instruction stream equals
    :func:`_scan_scalar`'s whatever the chunk boundaries.
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

    order = matcher._order
    size = _CHUNK_BASE
    chunk_start = chunk_end = 0
    literals = bytearray()
    position = 0
    while position < n:
        if position >= scan_positions:
            # Tail shorter than one seed window: literal to the end.
            literals += target_view[position:]
            break
        if position >= chunk_end:
            if position > chunk_end:
                size = _CHUNK_BASE
            elif chunk_end:
                size *= 2
            chunk_start = position
            chunk_end = min(position + size, scan_positions)
            lo, hi = matcher.candidate_ranges(
                target_hashes[chunk_start:chunk_end]
            )
            jump = next_occupied_table(hi > lo)
        index = position - chunk_start
        nxt = chunk_start + int(jump[index])
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
        for candidate in order[lo[index] : hi[index]].tolist():
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
