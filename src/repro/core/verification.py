"""Optimized match verification (the group-testing machinery in situ).

Candidates — (block, client position) pairs that a weak candidate hash
flagged — are pushed through the batches of a
:class:`~repro.grouptesting.strategies.VerificationStrategy`.  Pool
evolution is shared logic executed identically by both endpoints: each
batch's unit composition depends only on the strategy and the
confirmation bitmaps that crossed the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.grouptesting.strategies import (
    BatchMode,
    BatchScope,
    BatchSpec,
    VerificationStrategy,
)
ItemT = TypeVar("ItemT")


@dataclass
class VerificationPools(Generic[ItemT]):
    """Per-endpoint candidate pools during a verification exchange."""

    main: list[ItemT]
    salvage: list[ItemT] = field(default_factory=list)
    accepted: list[ItemT] = field(default_factory=list)

    def select(self, batch: BatchSpec) -> list[ItemT]:
        """Items this batch covers (consumes the salvage pool)."""
        if batch.scope is BatchScope.FAILED_GROUP_MEMBERS:
            items = self.salvage
            self.salvage = []
            return items
        return self.main

    def apply(
        self,
        batch: BatchSpec,
        units: list[list[ItemT]],
        passed: list[bool],
    ) -> None:
        """Fold one batch's confirmation bitmap into the pools."""
        if len(units) != len(passed):
            raise ValueError("bitmap length does not match unit count")
        passed_items: list[ItemT] = []
        failed_items: list[ItemT] = []
        for unit, ok in zip(units, passed):
            (passed_items if ok else failed_items).extend(unit)
        if batch.scope is BatchScope.FAILED_GROUP_MEMBERS:
            # Salvaged items are decided immediately.
            self.accepted.extend(passed_items)
        else:
            if batch.mode is BatchMode.GROUP:
                self.salvage.extend(failed_items)
            self.main = passed_items

    def finish(self) -> list[ItemT]:
        """Final accepted items once all batches ran."""
        self.accepted.extend(self.main)
        self.main = []
        # Anything still in salvage was never salvaged: rejected.
        self.salvage = []
        return self.accepted


def make_units(items: list[ItemT], batch: BatchSpec) -> list[list[ItemT]]:
    """Chunk ``items`` into this batch's units (groups or singletons)."""
    if batch.mode is BatchMode.INDIVIDUAL:
        return [[item] for item in items]
    size = batch.group_size
    return [items[i : i + size] for i in range(0, len(items), size)]


def batch_wire_bits(units: list[list[ItemT]], batch: BatchSpec) -> int:
    """Client→server bits one batch costs (one hash per unit)."""
    return len(units) * batch.bits


def strategy_max_batches(strategy: VerificationStrategy) -> int:
    """Number of client→server batches the exchange may need."""
    return len(strategy.batches)


def region_verification_values(
    sessions,
    units: list[tuple[int, list[tuple[int, int]]]],
    batch: BatchSpec,
) -> list[int]:
    """One verification hash per unit of ``(offset, length)`` regions.

    A unit is ``(lane, regions)``: regions of ``sessions[lane].data``,
    hashed with ``sessions[lane].strong``, so one call serves a whole
    stack of lanes.  Both endpoints call this on their own files: the
    client on the candidate positions it claims, the server on the
    blocks themselves.
    """
    bits = batch.bits
    if batch.mode is BatchMode.INDIVIDUAL:
        values = []
        for lane, ((offset, length),) in units:
            session = sessions[lane]
            values.append(
                session.strong.bits(session.data[offset : offset + length], bits)
            )
        return values
    return [
        sessions[lane].strong.group_bits(
            (
                sessions[lane].data[offset : offset + length]
                for offset, length in regions
            ),
            bits,
        )
        for lane, regions in units
    ]
