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


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate``, without the copy for a stack of one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


#: Lane tag shift of :meth:`Frontier.keyed` offsets: a lane's offsets
#: (below 2**40) never meet another lane's, nor come within a local
#: neighbourhood of them.
_LANE_SHIFT = 40


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
    level up.  Queries over the frontier (adjacency, anchors, planning)
    run on a :class:`Frontier`, which stacks the rows of many trackers.
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
        self._set_rows(
            level,
            starts,
            lengths,
            starts + lengths,
            np.zeros(rows, dtype=bool),
            np.zeros(rows, dtype=bool),
            np.zeros(rows, dtype=np.int64),
            np.zeros(rows, dtype=np.uint64),
            parent_known_width,
            parent_known_value,
        )

    def _set_rows(
        self,
        level,
        starts,
        lengths,
        ends,
        matched,
        continuation_failed,
        known_width,
        known_value,
        parent_known_width,
        parent_known_value,
    ) -> None:
        self.level = level
        self.starts = starts
        self.lengths = lengths
        self.ends = ends
        self.matched = matched
        self.continuation_failed = continuation_failed
        self.known_width = known_width
        self.known_value = known_value
        self.parent_known_width = parent_known_width
        self.parent_known_value = parent_known_value

    @property
    def paired(self) -> bool:
        """True once the frontier is made of sibling pairs (level > 0)."""
        return self.level > 0

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

    def advance_level(self, *others: "BlockTracker") -> np.ndarray:
        """Split what can recurse, retire what cannot; flag what has more.

        Runs for this tracker and every one of ``others`` as one stack
        (a fixed number of numpy calls however many trackers and rows)
        and returns one flag per tracker, this one first: True if its
        new level has blocks.  A block recurses while its smaller child
        is still at least the floor block size (the continuation minimum
        when continuation hashes are enabled, else the global minimum).
        The trackers' new rows are views into shared stack arrays.
        """
        trackers = (self, *others)
        frontier = Frontier(trackers)
        split_length = np.fromiter(
            (tracker._split_length for tracker in trackers),
            dtype=np.int64,
            count=len(trackers),
        )[frontier.lane]
        splits = (
            ~frontier.matched & (frontier.lengths >= split_length)
        ).nonzero()[0]
        starts, lengths = split_blocks(
            frontier.starts[splits], frontier.lengths[splits]
        )
        rows = starts.size
        ends = starts + lengths
        matched = np.zeros(rows, dtype=bool)
        continuation_failed = np.zeros(rows, dtype=bool)
        known_width = np.zeros(rows, dtype=np.int64)
        known_value = np.zeros(rows, dtype=np.uint64)
        parent_width = _cat([t.known_width for t in trackers])[splits]
        parent_value = _cat([t.known_value for t in trackers])[splits]
        cut = splits.searchsorted(frontier.bounds).tolist()
        for tracker, lo, hi in zip(trackers, cut, cut[1:]):
            child = slice(2 * lo, 2 * hi)
            tracker._set_rows(
                tracker.level + 1,
                starts[child],
                lengths[child],
                ends[child],
                matched[child],
                continuation_failed[child],
                known_width[child],
                known_value[child],
                parent_width[lo:hi],
                parent_value[lo:hi],
            )
        return np.diff(cut) > 0


class Frontier:
    """The current level of one or more trackers, as one set of rows.

    Row ``r`` belongs to ``trackers[lane[r]]``, which owns rows
    ``bounds[i]:bounds[i + 1]`` in its own order.  Planning runs over a
    frontier, so a stack of lanes — both endpoints of each — is planned
    by one call; a single tracker is a stack of one.  The arrays are
    copies (except for a stack of one): state changes go to the
    trackers, through :meth:`scatter` or their own methods.
    """

    def __init__(self, trackers) -> None:
        self.trackers = trackers = list(trackers)
        self.config = trackers[0].config
        count = len(trackers)
        self.counts = np.fromiter(
            (tracker.starts.size for tracker in trackers),
            dtype=np.int64,
            count=count,
        )
        self.bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.bounds[1:])
        self.lane = np.repeat(np.arange(count), self.counts)
        self.starts = _cat([tracker.starts for tracker in trackers])
        self.lengths = _cat([tracker.lengths for tracker in trackers])
        self.ends = _cat([tracker.ends for tracker in trackers])
        self.matched = _cat([tracker.matched for tracker in trackers])
        self.continuation_failed = _cat(
            [tracker.continuation_failed for tracker in trackers]
        )
        self.paired_lanes = np.fromiter(
            (tracker.level > 0 for tracker in trackers),
            dtype=bool,
            count=count,
        )

    @property
    def size(self) -> int:
        return int(self.bounds[-1])

    def keyed(self, lanes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Offsets tagged with their lane: sortable across the stack."""
        return (lanes << _LANE_SHIFT) + offsets

    def local_rows(self) -> np.ndarray:
        """Each row's index within its own tracker."""
        return np.arange(self.size) - self.bounds[self.lane]

    def right_children(self) -> np.ndarray:
        """Rows that are the right child of a sibling pair."""
        return self.paired_lanes[self.lane] & (self.local_rows() % 2 == 1)

    def parent_rows(self, rows: np.ndarray) -> np.ndarray:
        """Index of each (paired) row's parent in :meth:`parent_known`."""
        pairs = np.where(self.paired_lanes, self.counts // 2, 0)
        pair_bounds = np.concatenate(([0], np.cumsum(pairs)))
        lanes = self.lane[rows]
        return pair_bounds[lanes] + (rows - self.bounds[lanes]) // 2

    def parent_known(self) -> tuple[np.ndarray, np.ndarray]:
        """Every paired tracker's per-pair parent width and value arrays."""
        return (
            _cat([tracker.parent_known_width for tracker in self.trackers]),
            _cat([tracker.parent_known_value for tracker in self.trackers]),
        )

    def sibling_matched(self) -> np.ndarray:
        """Rows whose sibling was confirmed (always False at level 0)."""
        rows = np.arange(self.size)
        siblings = self.bounds[self.lane] + ((rows - self.bounds[self.lane]) ^ 1)
        paired = self.paired_lanes[self.lane]
        return paired & self.matched[np.where(paired, siblings, rows)]

    def has_confirmed(self) -> bool:
        return any(tracker.confirmed_starts.size for tracker in self.trackers)

    def _confirmed_keys(self, name: str) -> np.ndarray:
        arrays = [getattr(tracker, name) for tracker in self.trackers]
        counts = [array.size for array in arrays]
        lanes = np.repeat(np.arange(len(arrays)), counts)
        return self.keyed(lanes, _cat(arrays))

    def continuation_eligible(self) -> np.ndarray:
        """Rows a confirmed match ends right before or starts right after."""
        return _member(
            self._confirmed_keys("confirmed_ends"),
            self.keyed(self.lane, self.starts),
        ) | _member(
            self._confirmed_keys("confirmed_starts"),
            self.keyed(self.lane, self.ends),
        )

    def local_anchors(self, rows: np.ndarray) -> np.ndarray:
        """Start of the anchoring match of each row's block, ``-1`` if none.

        The anchor is the nearest confirmed region of the row's own
        tracker within the local-hash neighborhood that ends at or
        before the block's start or begins at or after its end
        (overlapping regions cannot anchor; they are tree-disjoint).
        Equal distances go to the earlier confirmation.
        """
        anchors = np.full(rows.shape, -1, dtype=np.int64)
        tables = [
            np.asarray(tracker.confirmed_regions, dtype=np.int64).reshape(-1, 2)
            for tracker in self.trackers
        ]
        table = _cat(tables)
        count = len(table)
        if count == 0 or rows.size == 0:
            return anchors
        radius = self.config.local_neighborhood
        region_lanes = np.repeat(
            np.arange(len(tables)), [len(part) for part in tables]
        )
        keys = self.keyed(region_lanes, table[:, 0])
        # ``order`` maps a sorted position to its confirmation rank (a
        # tracker's regions keep their order in the concatenation).
        order = keys.argsort(kind="stable")
        region_starts = keys[order]
        region_ends = region_starts + table[order, 1]
        starts = self.keyed(self.lane[rows], self.starts[rows])
        ends = starts + self.lengths[rows]
        # Nearest region ending at or before the start.
        before = np.searchsorted(region_ends, starts, side="right") - 1
        before_ok = before >= 0
        before = np.maximum(before, 0)
        before_distance = starts - region_ends[before]
        before_ok &= before_distance <= radius
        # Nearest region starting at or after the end.
        after = np.searchsorted(region_starts, ends, side="left")
        after_ok = after < count
        after = np.minimum(after, count - 1)
        after_distance = region_starts[after] - ends
        after_ok &= after_distance <= radius
        take_after = after_ok & (
            ~before_ok
            | (after_distance < before_distance)
            | (
                (after_distance == before_distance)
                & (order[after] < order[before])
            )
        )
        anchors[before_ok] = table[order[before[before_ok]], 0]
        anchors[take_after] = table[order[after[take_after]], 0]
        return anchors

    def split(self, rows: np.ndarray) -> list[int]:
        """Cut points of ascending frontier ``rows`` at tracker bounds."""
        return rows.searchsorted(self.bounds).tolist()

    def scatter(self, name: str, rows: np.ndarray, values) -> None:
        """``trackers[lane][name][local row] = value`` for ascending rows."""
        values = np.broadcast_to(values, rows.shape)
        cut = self.split(rows)
        for tracker, lo, hi, base in zip(
            self.trackers, cut, cut[1:], self.bounds.tolist()
        ):
            if hi > lo:
                getattr(tracker, name)[rows[lo:hi] - base] = values[lo:hi]
