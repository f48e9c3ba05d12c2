"""Pipelined round scheduler: many files' protocol rounds on one channel.

The sequential collection path runs each changed file's protocol to
completion before starting the next, so a collection pays the link's
round-trip latency once per round *per file*.  The paper's deployment
model batches many files into each roundtrip instead; this module is the
scheduler that realises it.  Each changed file is a *lane*: the method's
step generator (:meth:`~repro.syncmethod.SyncMethod.lane` — for a
supervised method, :meth:`~repro.resilience.SyncSupervisor.lane` with
its retries, fallback ladder, breakers, deadlines and checkpoints) over
a private channel whose sends are recorded, which keeps the file's wire
transcript and byte accounting bit-identical to a sequential run.  The
:class:`CollectionScheduler` steps up to ``window`` lanes per wave,
coalescing each wave's recorded messages into shared multiplexed batches
(:func:`~repro.net.frame.encode_mux_batch`) on one
:class:`~repro.net.channel.SimulatedChannel`, whose direction-reversal
count — and therefore the modelled propagation cost — collapses by
roughly the window factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exceptions import ProtocolError, ReproError
from repro.net.channel import LinkModel, SimulatedChannel
from repro.net.frame import (
    MuxSubframe,
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.net.metrics import Direction, TransferStats
from repro.parallel.executor import FileResult, FileTask, failed_outcome
from repro.syncmethod import SyncMethod

__all__ = ["CollectionScheduler", "PipelineRun"]

#: Phase tag carried by every multiplexed batch on the shared channel.
MUX_PHASE = "mux"


@dataclass
class _Lane:
    """One in-flight file: its step generator and recorded sends."""

    stream_id: int
    task: FileTask
    steps: object
    transcript: list = field(default_factory=list)
    flushed: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    result: FileResult | None = None
    reconstructed: bytes | None = None


@dataclass
class PipelineRun:
    """Everything a pipelined scheduling pass produced.

    ``files`` holds one :class:`~repro.parallel.executor.FileResult` per
    input, in input order — what the executor returns for the sequential
    path.  ``reconstructed`` holds the bytes each session-driven client
    rebuilt.  ``link_wall_clock_s`` is the modelled wall clock of the
    *shared* channel (serialization of payload + mux framing, plus two
    one-way latencies per direction reversal) — the figure the
    sequential path computes from per-file counters instead, so the two
    are directly comparable.
    """

    files: list[FileResult] = field(default_factory=list)
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    transcripts: dict[str, list] = field(default_factory=dict)
    waves: int = 0
    mux_overhead_bytes: int = 0
    roundtrips_on_wire: int = 0
    link_wall_clock_s: float = 0.0
    shared_stats: TransferStats = field(default_factory=TransferStats)


class CollectionScheduler:
    """Step up to ``window`` per-file lanes, one wave at a time.

    Every wave runs one step of each in-flight lane (handshake, one
    protocol round, or the endgame) on its private channel, then flushes
    the wave's outbound messages onto the shared channel as multiplexed
    batches: slot ``j`` carries message ``j`` of every lane's step,
    grouped by direction (client→server first), one shared send per
    direction group.  Homogeneous files therefore cost the shared link
    one lane's worth of direction reversals per wave instead of one per
    lane — the latency-hiding the paper's batching model assumes.

    The decoded batches are checked against the lanes' originals on
    every flush, so "per-file transcripts bit-identical modulo
    interleaving" is enforced at runtime, not just in tests.
    """

    def __init__(
        self,
        method: SyncMethod,
        window: int = 8,
        link: LinkModel | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.method = method
        self.window = window
        self.link = link or LinkModel()
        self.shared = SimulatedChannel(self.link)
        self.waves = 0
        self.mux_overhead = 0

    # ------------------------------------------------------------------
    def run(
        self, tasks: list[FileTask], capture_errors: bool = False
    ) -> PipelineRun:
        """Synchronise every task; return the per-file results and the
        shared link's accounting.

        With ``capture_errors`` a lane's :class:`ReproError` ends that
        lane with ``FileResult.error`` set, as in
        :meth:`~repro.parallel.executor.SyncExecutor.run`.
        """
        pending = []
        for stream_id, task in enumerate(tasks):
            transcript = []
            steps = self.method.lane(
                task.name, task.old, task.new, recorder=transcript
            )
            pending.append(_Lane(stream_id, task, steps, transcript))
        run = PipelineRun()
        active: list[_Lane] = []
        cursor = 0
        while cursor < len(pending) or active:
            while cursor < len(pending) and len(active) < self.window:
                active.append(pending[cursor])
                cursor += 1
            self.waves += 1
            self.shared.mark_round(self.waves)
            for lane in active:
                self._step_lane(lane, capture_errors)
            self._flush_wave(active)
            active = [lane for lane in active if lane.result is None]
        for lane in pending:
            run.files.append(lane.result)
            run.transcripts[lane.task.name] = lane.transcript
            if lane.reconstructed is not None:
                run.reconstructed[lane.task.name] = lane.reconstructed
        run.waves = self.waves
        run.mux_overhead_bytes = self.mux_overhead
        run.shared_stats = self.shared.stats
        run.roundtrips_on_wire = self.shared.stats.roundtrips
        run.link_wall_clock_s = self.link.transfer_seconds(
            self.shared.stats.client_to_server_bytes,
            self.shared.stats.server_to_client_bytes,
            self.shared.stats.roundtrips,
        )
        return run

    # ------------------------------------------------------------------
    def _step_lane(self, lane: _Lane, capture_errors: bool) -> None:
        """Advance one lane by exactly one step; settle it when it ends."""
        started = time.perf_counter()
        cpu_started = time.process_time()
        outcome = error = None
        try:
            next(lane.steps)
        except StopIteration as stop:
            outcome, lane.reconstructed = stop.value
        except ReproError as exc:
            if not capture_errors:
                raise
            outcome, error = failed_outcome(exc)
        lane.elapsed_s += time.perf_counter() - started
        lane.cpu_s += time.process_time() - cpu_started
        if outcome is not None:
            lane.result = FileResult(
                lane.task.name, outcome, lane.elapsed_s, lane.cpu_s, error
            )

    # ------------------------------------------------------------------
    def _flush_wave(self, lanes: list[_Lane]) -> None:
        """Mirror a wave's private-channel traffic onto the shared link."""
        wave = []
        for lane in lanes:
            wave.append((lane, lane.transcript[lane.flushed :]))
            lane.flushed = len(lane.transcript)
        depth = max((len(messages) for _lane, messages in wave), default=0)
        for slot in range(depth):
            present = [
                (lane, messages[slot])
                for lane, messages in wave
                if slot < len(messages)
            ]
            for direction in (
                Direction.CLIENT_TO_SERVER,
                Direction.SERVER_TO_CLIENT,
            ):
                group = [
                    (lane, message)
                    for lane, message in present
                    if message.direction is direction
                ]
                if not group:
                    continue
                subframes = [
                    MuxSubframe(
                        stream_id=lane.stream_id,
                        round_index=message.round_index,
                        seq=slot,
                        bit_length=message.bits,
                        payload=message.payload,
                    )
                    for lane, message in group
                ]
                batch = encode_mux_batch(subframes)
                self.shared.send(direction, batch, MUX_PHASE)
                decoded = decode_mux_batch(self.shared.receive(direction))
                if [
                    (sub.stream_id, sub.bit_length, sub.payload)
                    for sub in decoded
                ] != [
                    (sub.stream_id, sub.bit_length, sub.payload)
                    for sub in subframes
                ]:
                    raise ProtocolError(
                        "multiplexed batch did not round-trip bit-identically"
                    )
                self.mux_overhead += mux_overhead_bytes(batch, subframes)
