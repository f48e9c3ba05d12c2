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
window's lanes step through the same driver as the sequential path
(:mod:`repro.lanes`), so their rounds run stacked.  The
:class:`CollectionScheduler` mirrors up to ``window`` lanes' recorded
messages onto one shared :class:`~repro.net.channel.SimulatedChannel`,
one multiplexed batch (:func:`~repro.net.frame.encode_mux_batch`) per
direction turn, so the shared link's direction reversals — and with
them the modelled propagation cost — collapse by roughly the window
factor.  A window at least the number of changed files runs every file
in one lockstep batch sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ProtocolError
from repro.lanes import Lane, step_lanes
from repro.net.channel import LinkModel, SentMessage, SimulatedChannel
from repro.net.frame import (
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.net.metrics import Direction, TransferStats
from repro.parallel.executor import FileResult, FileTask, lane_result
from repro.syncmethod import SyncMethod

__all__ = ["CollectionScheduler", "PipelineRun"]

#: Phase tag carried by every multiplexed batch on the shared channel.
MUX_PHASE = "mux"


@dataclass
class _Lane:
    """One in-flight file: its driver lane and recorded sends.

    ``transcript[flushed:]`` is the lane's outbox: what it sent on its
    private channel that the shared link has not carried yet.
    """

    task: FileTask
    lane: Lane
    transcript: list = field(default_factory=list)
    flushed: int = 0
    result: FileResult | None = None

    @property
    def done(self) -> bool:
        """Finished stepping, and the shared link carried all it sent."""
        return self.result is not None and self.flushed == len(self.transcript)


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
    """Mirror up to ``window`` per-file lanes onto one shared link, one
    batch per direction turn.

    Batches alternate client→server and server→client.  In each, every
    active lane contributes its whole next *run* — its consecutive
    messages in that direction.  A lane is stepped whenever its outbox
    is empty, so a run merges across step boundaries: round *r*'s
    closing server→client message rides with round *r+1*'s server→client
    hashes.  The schedule stays causally honest: a lane's next run goes
    out in a later batch than its previous one, and one endpoint sends a
    whole run.  A lane that finishes is replaced at once, and the new
    lane joins the current batch if its first message goes that way.  So
    consecutive batches never share a direction, and the shared link's
    roundtrips equal its batch count (``waves``).

    The decoded batches are checked against the lanes' originals on
    every send, so "per-file transcripts bit-identical modulo
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
        lanes = []
        for task in tasks:
            transcript = []
            steps = self.method.lane(
                task.name, task.old, task.new, recorder=transcript
            )
            lanes.append(_Lane(task, Lane(steps), transcript))
        pending = deque(lanes)
        active = [pending.popleft() for _ in range(min(self.window, len(lanes)))]
        direction = Direction.CLIENT_TO_SERVER
        while active:
            runs = []
            index = 0
            while index < len(active):
                lane = active[index]
                runs.append(
                    self._take_run(lane, direction, active, capture_errors)
                )
                if lane.done:
                    del active[index]
                    if pending:
                        active.append(pending.popleft())
                else:
                    index += 1
            if any(runs):
                self._send_batch(direction, runs)
            direction = direction.opposite
        run = PipelineRun()
        for lane in lanes:
            run.files.append(lane.result)
            run.transcripts[lane.task.name] = lane.transcript
            if lane.result.reconstructed is not None:
                run.reconstructed[lane.task.name] = lane.result.reconstructed
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
    def _take_run(
        self,
        lane: _Lane,
        direction: Direction,
        active: list[_Lane],
        capture_errors: bool,
    ) -> list[SentMessage]:
        """Pop the lane's next run in ``direction``, stepping the lane
        whenever its outbox runs dry."""
        run = []
        while True:
            if lane.flushed == len(lane.transcript):
                if lane.result is not None:
                    return run
                self._step(lane, active, capture_errors)
                continue
            message = lane.transcript[lane.flushed]
            if message.direction is not direction:
                return run
            run.append(message)
            lane.flushed += 1

    # ------------------------------------------------------------------
    def _step(
        self, lane: _Lane, active: list[_Lane], capture_errors: bool
    ) -> None:
        """Advance ``lane`` by one step — stacked with every other
        unfinished lane of the window — and settle the lanes that end.

        Stepping a lane early only fills its outbox sooner: what it sends
        does not depend on when it runs, so the batches stay the same.
        A method whose results depend on file order steps alone.
        """
        group = [lane]
        if not self.method.observes_file_order:
            group += [
                other
                for other in active
                if other is not lane and other.result is None
            ]
        step_lanes([member.lane for member in group])
        for member in group:
            if member.lane.done:
                member.result = lane_result(
                    member.task, member.lane, capture_errors
                )

    # ------------------------------------------------------------------
    def _send_batch(
        self, direction: Direction, runs: list[list[SentMessage]]
    ) -> None:
        """Carry one batch of runs, one per active lane, on the shared link."""
        self.waves += 1
        self.shared.mark_round(self.waves)
        framed = [
            [(message.bits, message.payload) for message in run] for run in runs
        ]
        batch = encode_mux_batch(framed)
        self.shared.send(direction, batch, MUX_PHASE)
        if decode_mux_batch(self.shared.receive(direction), len(runs)) != framed:
            raise ProtocolError(
                "multiplexed batch did not round-trip bit-identically"
            )
        self.mux_overhead += mux_overhead_bytes(batch, framed)
