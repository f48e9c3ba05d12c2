"""Sub-phase hash planning — pure functions of mirrored state.

Both endpoints call these with their own (identically evolving)
:class:`~repro.core.blocks.BlockTracker`; the resulting plans are equal on
both sides, which is what lets hashes travel without block identifiers.
Each planner is a handful of mask operations over a whole
:class:`~repro.core.blocks.Frontier`: one tracker, or the stacked
trackers of many lanes and both endpoints, whose plan rows then come
out grouped by tracker.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.blocks import (
    CONTINUATION,
    DERIVED,
    GLOBAL,
    LOCAL,
    BlockTracker,
    Frontier,
)


class HashPlan(NamedTuple):
    """One sub-phase's planned hashes as parallel arrays, in offset order.

    ``rows`` index the (possibly stacked) frontier, ``kinds`` hold the
    :data:`~repro.core.blocks.KIND_OF_CODE` codes, ``widths`` the width
    of the hash value the client ends up holding, and ``starts``/
    ``lengths`` the rows' geometry.
    """

    rows: np.ndarray
    kinds: np.ndarray
    widths: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def size(self) -> int:
        """Number of planned hashes."""
        return int(self.rows.size)

    @property
    def transmitted_bits(self) -> int:
        """Bits actually sent for this plan (DERIVED rows cost none)."""
        return int(np.dot(self.widths, self.kinds != DERIVED))


def _filled(count: int, value: int) -> np.ndarray:
    array = np.empty(count, dtype=np.int64)
    array.fill(value)
    return array


def _frontier(frontier: "Frontier | BlockTracker") -> Frontier:
    return frontier if isinstance(frontier, Frontier) else Frontier([frontier])


def _plan(frontier: Frontier, rows: np.ndarray, kinds, widths) -> HashPlan:
    return HashPlan(
        rows, kinds, widths, frontier.starts[rows], frontier.lengths[rows]
    )


_NOTHING = np.zeros(0, dtype=np.int64)
#: The plan with no hashes (shared; plans are never written to).
_EMPTY_PLAN = HashPlan(_NOTHING, _NOTHING, _NOTHING, _NOTHING, _NOTHING)


def plan_continuation(frontier: "Frontier | BlockTracker") -> HashPlan:
    """Continuation hashes for this level's adjacency-eligible blocks."""
    frontier = _frontier(frontier)
    config = frontier.config
    if not config.continuation_enabled or not frontier.has_confirmed():
        return _EMPTY_PLAN
    rows = (
        ~frontier.matched
        & (frontier.lengths >= config.continuation_min_block_size)
        & frontier.continuation_eligible()
    ).nonzero()[0]
    return _plan(
        frontier,
        rows,
        _filled(rows.size, CONTINUATION),
        _filled(rows.size, config.continuation_hash_bits),
    )


def plan_global(
    frontier: "Frontier | BlockTracker",
    global_bits,
    exclude: np.ndarray | None = None,
) -> HashPlan:
    """Global (and optional local) hashes, with decomposable suppression.

    Blocks at or above the global minimum block size get a global hash;
    when local hashes are enabled, smaller blocks anchored near a
    confirmed match get a local hash instead of nothing.  The right
    sibling of a transmitted global pair whose parent hash the client
    already holds is marked DERIVED and costs no bits.  ``global_bits``
    is one width, or one per tracker of the frontier.  ``exclude`` is a
    frontier mask of blocks already covered by another sub-phase.

    With continuation-first rounds the paper's omission rules apply: a
    block needs no global hash if its sibling was just confirmed (the
    match would almost certainly have extended into this block and been
    found by the parent or by continuation) or if its own continuation
    hash just failed.
    """
    frontier = _frontier(frontier)
    config = frontier.config
    lengths = frontier.lengths
    bits = np.asarray(global_bits, dtype=np.int64)
    if bits.ndim:
        bits = bits[frontier.lane]
    candidates = ~frontier.matched
    if exclude is not None:
        candidates &= ~exclude
    if config.continuation_first:
        candidates &= ~(
            frontier.continuation_failed | frontier.sibling_matched()
        )
    is_global = candidates & (lengths >= config.min_block_size)
    selected = is_global
    if config.use_local_hashes:
        is_local = candidates & ~is_global & (lengths >= config.floor_block_size)
        is_local[is_local] = (
            frontier.local_anchors(is_local.nonzero()[0]) >= 0
        )
        selected = is_global | is_local
    rows = selected.nonzero()[0]
    kinds = _filled(rows.size, GLOBAL)
    widths = np.broadcast_to(bits, lengths.shape)[rows].copy()
    if config.use_local_hashes:
        local = is_local[rows]
        kinds[local] = LOCAL
        widths[local] = config.local_hash_bits
    if config.use_decomposable and frontier.paired_lanes.any():
        # A right child whose left sibling (the row before) is chosen
        # GLOBAL and whose parent hash the client holds.
        right = (frontier.right_children() & is_global).nonzero()[0]
        right = right[is_global[right - 1]]
        parent_width, _values = frontier.parent_known()
        right = right[
            parent_width[frontier.parent_rows(right)]
            >= np.broadcast_to(bits, lengths.shape)[right]
        ]
        derived = np.zeros(lengths.size, dtype=bool)
        derived[right] = True
        kinds[derived[rows]] = DERIVED
    return _plan(frontier, rows, kinds, widths)


def plan_mixed(frontier: "Frontier | BlockTracker", global_bits) -> HashPlan:
    """Single-phase rounds (``continuation_first=False``).

    Adjacency-eligible blocks get continuation hashes; the rest get global
    (or local) hashes.  Used to measure the benefit of phase splitting.
    """
    frontier = _frontier(frontier)
    continuation = plan_continuation(frontier)
    covered = np.zeros(frontier.size, dtype=bool)
    covered[continuation.rows] = True
    rest = plan_global(frontier, global_bits, exclude=covered)
    order = np.concatenate((continuation.rows, rest.rows)).argsort()
    return HashPlan(
        *(
            np.concatenate((ours, theirs))[order]
            for ours, theirs in zip(continuation, rest)
        )
    )


def apply_known_hashes(
    frontier: "Frontier | BlockTracker", plan: HashPlan
) -> None:
    """Record which blocks' hash values the client now holds."""
    known = plan.kinds <= DERIVED
    _frontier(frontier).scatter(
        "known_width", plan.rows[known], plan.widths[known]
    )
