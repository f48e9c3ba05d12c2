"""Simulated network substrate.

The paper's evaluation measures *bytes on the wire*, split by direction
(client→server vs server→client) and by phase (map construction vs final
delta).  :class:`~repro.net.channel.SimulatedChannel` performs exact
accounting of framed messages, counts roundtrips, and can estimate
wall-clock transfer time for a configured latency/bandwidth — the honest
stand-in for the authors' slow-network testbed.

For links that are slow *and* flaky, :class:`~repro.net.faults.FaultyChannel`
layers CRC32 framing (:mod:`repro.net.frame`) and a seeded
:class:`~repro.net.faults.FaultPlan` of corruption, truncation, drops and
disconnects on top of the same accounting.
"""

from repro.net.channel import Direction, LinkModel, SimulatedChannel
from repro.net.chaos import (
    CHAOS_SHAPES,
    ChaosProfile,
    ScheduledFaultPlan,
    chaos_plan,
)
from repro.net.faults import FaultEvent, FaultKind, FaultPlan, FaultyChannel
from repro.net.frame import (
    FRAME_OVERHEAD,
    decode_frame,
    decode_mux_batch,
    encode_frame,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.net.metrics import TransferStats

__all__ = [
    "CHAOS_SHAPES",
    "ChaosProfile",
    "Direction",
    "FRAME_OVERHEAD",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyChannel",
    "LinkModel",
    "ScheduledFaultPlan",
    "SimulatedChannel",
    "TransferStats",
    "chaos_plan",
    "decode_frame",
    "decode_mux_batch",
    "encode_frame",
    "encode_mux_batch",
    "mux_overhead_bytes",
]
