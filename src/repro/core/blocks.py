"""Recursive block tree shared (and mirrored) by client and server.

Both endpoints construct the same initial partition of the server file
into top-level blocks and evolve it through identical state transitions
(driven only by information that crossed the wire: candidate bitmaps and
confirmation bitmaps).  Because the evolution is deterministic, the server
never has to transmit block identifiers — hashes are sent in canonical
(target-offset) order and the client knows exactly which block each one
belongs to.  This mirroring is what makes the tiny hash widths of the
paper possible.

The core protocol keeps the tree as an array *frontier*: the blocks of
the current level as parallel int64 ``starts``/``lengths`` plus per-row
state.  After level 0 the frontier is always made of sibling pairs, so
the sibling of row ``i`` is row ``i ^ 1`` and its parent is pair
``i // 2``; what the client knows about each parent's hash lives in the
per-pair ``parent_known_width``/``parent_known_value`` arrays.

The tree's geometry is two functions shared by every protocol that
walks a block tree (core, multiround, broadcast):
:func:`partition_blocks` cuts the level-0 blocks and
:func:`split_blocks` halves a set of blocks into interleaved sibling
pairs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.config import ProtocolConfig


class HashKind(Enum):
    """How a block's hash reaches the client in a sub-phase."""

    GLOBAL = "global"  # compared against every client position
    CONTINUATION = "continuation"  # compared at 1–2 expected positions
    LOCAL = "local"  # compared within a neighborhood of a match
    DERIVED = "derived"  # not transmitted; client decomposes it


#: Integer kind codes of a :class:`~repro.core.planning.HashPlan`;
#: ``KIND_OF_CODE[code]`` is the matching :class:`HashKind`.  The codes
#: of the hashes the client ends up holding (GLOBAL, DERIVED) come first.
GLOBAL, DERIVED, CONTINUATION, LOCAL = range(4)
KIND_OF_CODE = (
    HashKind.GLOBAL,
    HashKind.DERIVED,
    HashKind.CONTINUATION,
    HashKind.LOCAL,
)


def partition_blocks(
    length: int, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Level 0: ``[0, length)`` cut into ``block_size`` blocks.

    Returns int64 ``(starts, lengths)``; only the last block may be
    shorter.
    """
    starts = np.arange(0, length, block_size, dtype=np.int64)
    return starts, np.minimum(block_size, length - starts)


def split_blocks(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two children of every given block, as one frontier.

    Children come left then right, so the sibling of row ``i`` is row
    ``i ^ 1`` and its parent is input row ``i // 2``; the left child
    gets the odd byte.
    """
    left = (lengths + 1) // 2
    child_starts = np.empty(2 * starts.size, dtype=np.int64)
    child_lengths = np.empty_like(child_starts)
    child_starts[0::2] = starts
    child_starts[1::2] = starts + left
    child_lengths[0::2] = left
    child_lengths[1::2] = lengths - left
    return child_starts, child_lengths


def _member(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``np.isin(probes, keys)`` for a sorted ``keys`` array."""
    return keys.searchsorted(probes, "right") != keys.searchsorted(probes)


class BlockTracker:
    """Deterministic per-endpoint mirror of the block tree, as arrays.

    Only target-space facts live here (block geometry, match adjacency);
    the client keeps the source-position map separately.

    Per row of the current level: ``starts``, ``lengths`` (and ``ends``),
    ``matched`` (confirmed this level), ``continuation_failed`` and the
    width/value of the global hash the client holds for the row
    (``known_width``, ``known_value``; the server never learns values and
    keeps 0).  Per sibling pair: ``parent_known_width`` and
    ``parent_known_value``, the parent's entries of those two arrays one
    level up.  Every method is a fixed number of numpy calls, however
    many blocks the frontier holds.
    """

    def __init__(self, target_length: int, config: ProtocolConfig) -> None:
        self.config = config
        self.target_length = target_length
        #: A block splits while both children reach the floor size.
        self._split_length = 2 * config.floor_block_size
        starts, lengths = partition_blocks(
            target_length, config.resolve_start_block_size(target_length)
        )
        empty = np.zeros(0, dtype=np.int64)
        self._set_frontier(0, starts, lengths, empty, empty.astype(np.uint64))
        self.restore_confirmed([])

    def _set_frontier(
        self,
        level: int,
        starts: np.ndarray,
        lengths: np.ndarray,
        parent_known_width: np.ndarray,
        parent_known_value: np.ndarray,
    ) -> None:
        rows = starts.size
        self.level = level
        self.starts = starts
        self.lengths = lengths
        self.ends = starts + lengths
        self.matched = np.zeros(rows, dtype=bool)
        self.continuation_failed = np.zeros(rows, dtype=bool)
        self.known_width = np.zeros(rows, dtype=np.int64)
        self.known_value = np.zeros(rows, dtype=np.uint64)
        self.parent_known_width = parent_known_width
        self.parent_known_value = parent_known_value
        #: Row ``i``'s sibling row, ``i ^ 1`` (``None`` at level 0).
        self.siblings = np.arange(rows) ^ 1 if level else None

    @property
    def paired(self) -> bool:
        """True once the frontier is made of sibling pairs (level > 0)."""
        return self.siblings is not None

    def restore_frontier(
        self,
        level: int,
        parent_starts: np.ndarray,
        parent_lengths: np.ndarray,
        parent_known_width: np.ndarray,
        parent_known_value: np.ndarray,
    ) -> None:
        """Rebuild the frontier as the children of the given parents."""
        self._set_frontier(
            level,
            *split_blocks(parent_starts, parent_lengths),
            parent_known_width,
            parent_known_value,
        )

    def restore_confirmed(self, regions: list[tuple[int, int]]) -> None:
        """Replace the confirmed regions (in confirmation order)."""
        self.confirmed_regions: list[tuple[int, int]] = []
        #: Target starts and ends of the confirmed matches, sorted by
        #: start (matches are disjoint, so the ends are sorted too).
        self.confirmed_starts = self.confirmed_ends = np.zeros(
            0, dtype=np.int64
        )
        if regions:
            table = np.asarray(regions, dtype=np.int64)
            self._add_regions(table[:, 0], table[:, 1])

    # ------------------------------------------------------------------
    # State transitions (identical on both endpoints)
    # ------------------------------------------------------------------
    def record_matches(self, rows: np.ndarray) -> None:
        """Mark frontier rows as confirmed-matched, in confirmation order."""
        if rows.size:
            self.matched[rows] = True
            self._add_regions(self.starts[rows], self.lengths[rows])

    def _add_regions(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        self.confirmed_regions.extend(zip(starts.tolist(), lengths.tolist()))
        all_starts = np.concatenate((self.confirmed_starts, starts))
        order = all_starts.argsort(kind="stable")
        self.confirmed_starts = all_starts[order]
        self.confirmed_ends = np.concatenate(
            (self.confirmed_ends, starts + lengths)
        )[order]

    def has_active(self) -> bool:
        return np.count_nonzero(self.matched) < self.matched.size

    def advance_level(self) -> bool:
        """Split what can recurse, retire what cannot; return True if more.

        A block recurses while its smaller child is still at least the
        floor block size (the continuation minimum when continuation
        hashes are enabled, else the global minimum).
        """
        splits = (
            ~self.matched & (self.lengths >= self._split_length)
        ).nonzero()[0]
        self.restore_frontier(
            self.level + 1,
            self.starts[splits],
            self.lengths[splits],
            self.known_width[splits],
            self.known_value[splits],
        )
        return splits.size > 0

    # ------------------------------------------------------------------
    # Adjacency / neighborhood queries (whole frontier at once)
    # ------------------------------------------------------------------
    def continuation_eligible(self) -> np.ndarray:
        """Rows a confirmed match ends right before or starts right after."""
        return _member(self.confirmed_ends, self.starts) | _member(
            self.confirmed_starts, self.ends
        )

    def sibling_matched(self) -> np.ndarray:
        """Rows whose sibling was confirmed (always False at level 0)."""
        if not self.paired:
            return np.zeros(self.starts.size, dtype=bool)
        return self.matched[self.siblings]

    def local_anchors(
        self, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Start of the anchoring match of each region, ``-1`` if none.

        The anchor is the nearest confirmed region within the local-hash
        neighborhood that ends at or before the region's start or begins
        at or after its end (overlapping regions cannot anchor; they are
        tree-disjoint).  Equal distances go to the earlier confirmation.
        """
        anchors = np.full(starts.shape, -1, dtype=np.int64)
        count = len(self.confirmed_regions)
        if count == 0 or starts.size == 0:
            return anchors
        radius = self.config.local_neighborhood
        table = np.asarray(self.confirmed_regions, dtype=np.int64)
        order = table[:, 0].argsort(kind="stable")
        region_starts = table[order, 0]
        region_ends = region_starts + table[order, 1]
        # ``order`` maps a sorted position to its confirmation rank.
        # Nearest region ending at or before the start.
        before = np.searchsorted(region_ends, starts, side="right") - 1
        before_ok = before >= 0
        before = np.maximum(before, 0)
        before_distance = starts - region_ends[before]
        before_ok &= before_distance <= radius
        # Nearest region starting at or after the end.
        after = np.searchsorted(region_starts, starts + lengths, side="left")
        after_ok = after < count
        after = np.minimum(after, count - 1)
        after_distance = region_starts[after] - (starts + lengths)
        after_ok &= after_distance <= radius
        take_after = after_ok & (
            ~before_ok
            | (after_distance < before_distance)
            | (
                (after_distance == before_distance)
                & (order[after] < order[before])
            )
        )
        anchors[before_ok] = region_starts[before[before_ok]]
        anchors[take_after] = region_starts[after[take_after]]
        return anchors
