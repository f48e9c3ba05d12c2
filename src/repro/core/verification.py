"""Match verification hashes (the group-testing machinery in situ).

Candidates — (block, client position) pairs that a weak candidate hash
flagged — are pushed through the batches of a
:class:`~repro.grouptesting.strategies.VerificationStrategy` by
:meth:`repro.core.protocol.LaneChannels.verify`, the one implementation
of the exchange, which the unicast round and the broadcast protocol's
private back-channel both run.  Pool evolution is shared logic executed
identically by both endpoints: each batch's unit composition depends
only on the strategy and the confirmation bitmaps that crossed the
wire.  This module computes each unit's verification hash.
"""

from __future__ import annotations

from repro.grouptesting.strategies import BatchMode, BatchSpec


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
