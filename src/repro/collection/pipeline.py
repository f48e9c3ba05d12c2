"""Pipelined link accounting: many files' protocol rounds on one channel.

The sequential collection path pays the link's round-trip latency once
per round *per file*.  The paper's deployment model batches many files
into each roundtrip instead; this module prices a collection that way.
The changed files run exactly as on the sequential path — the
executor's stacked lanes (:class:`~repro.parallel.executor.SyncExecutor`,
over its process pool when ``workers`` allows), each over a private
channel whose sends are recorded — so every file's wire transcript and
byte accounting is the sequential run's.  What a lane sends does not
depend on when it runs, so the schedule is then *replayed* from those
transcripts: the :class:`CollectionScheduler` walks them in file order,
up to ``window`` in flight, and carries them on one shared
:class:`~repro.net.channel.SimulatedChannel`, one multiplexed batch
(:func:`~repro.net.frame.encode_mux_batch`) per direction turn.  The
shared link's direction reversals — and with them the modelled
propagation cost — collapse by roughly the window factor.  A window at
least the number of changed files carries every file in one lockstep
batch sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ProtocolError
from repro.net.channel import LinkModel, SentMessage, SimulatedChannel
from repro.net.frame import (
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.net.metrics import Direction, TransferStats
from repro.parallel.executor import BatchResult, FileTask, SyncExecutor
from repro.syncmethod import SyncMethod

__all__ = ["CollectionScheduler", "PipelineRun"]

#: Phase tag carried by every multiplexed batch on the shared channel.
MUX_PHASE = "mux"


@dataclass
class PipelineRun(BatchResult):
    """The executor's run of a pipelined collection, plus the shared
    link's accounting.

    ``files`` holds one :class:`~repro.parallel.executor.FileResult` per
    input, in input order, exactly as the sequential path's executor
    returns them.  ``link_wall_clock_s`` is the modelled wall clock of
    the *shared* channel (serialization of payload + mux framing, plus
    two one-way latencies per direction reversal) — the figure the
    sequential path computes from per-file counters instead, so the two
    are directly comparable.
    """

    waves: int = 0
    mux_overhead_bytes: int = 0
    roundtrips_on_wire: int = 0
    link_wall_clock_s: float = 0.0
    shared_stats: TransferStats = field(default_factory=TransferStats)

    @property
    def reconstructed(self) -> dict[str, bytes]:
        """The bytes each session-driven client rebuilt, by file."""
        return {
            result.name: result.reconstructed
            for result in self.files
            if result.reconstructed is not None
        }

    @property
    def transcripts(self) -> dict[str, list[SentMessage]]:
        """Every file's recorded sends, by file."""
        return {result.name: result.transcript for result in self.files}


class CollectionScheduler:
    """Run the files on the executor, then replay their transcripts onto
    one shared link, up to ``window`` files in flight, one batch per
    direction turn.

    Batches alternate client→server and server→client.  In each, every
    in-flight file contributes its whole next *run* — its consecutive
    recorded messages in that direction — so round *r*'s closing
    server→client message rides with round *r+1*'s server→client
    hashes.  The schedule stays causally honest: a file's next run goes
    out in a later batch than its previous one, and one endpoint sends a
    whole run.  A file whose transcript is exhausted is replaced at once
    by the next in file order, which joins the current batch if its
    first message goes that way.  So consecutive batches never share a
    direction, and the shared link's roundtrips equal its batch count
    (``waves``).

    The decoded batches are checked against the recorded originals on
    every send, so "per-file transcripts bit-identical modulo
    interleaving" is enforced at runtime, not just in tests.
    """

    def __init__(
        self,
        method: SyncMethod,
        window: int = 8,
        link: LinkModel | None = None,
        workers: int | None = 1,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.method = method
        self.window = window
        self.link = link or LinkModel()
        self.executor = SyncExecutor(workers=workers)
        self.shared = SimulatedChannel(self.link)
        self.waves = 0
        self.mux_overhead = 0

    # ------------------------------------------------------------------
    def run(
        self, tasks: list[FileTask], capture_errors: bool = False
    ) -> PipelineRun:
        """Synchronise every task; return the per-file results and the
        shared link's accounting.

        ``capture_errors`` and the scheduler's link are passed to
        :meth:`~repro.parallel.executor.SyncExecutor.run`, so each
        file's own channels run on the link the batches are priced on.
        """
        batch = self.executor.run(
            self.method, tasks, capture_errors, link=self.link
        )
        self._replay([result.transcript for result in batch.files])
        stats = self.shared.stats
        return PipelineRun(
            **vars(batch),
            waves=self.waves,
            mux_overhead_bytes=self.mux_overhead,
            roundtrips_on_wire=stats.roundtrips,
            link_wall_clock_s=self.link.transfer_seconds(
                stats.client_to_server_bytes,
                stats.server_to_client_bytes,
                stats.roundtrips,
            ),
            shared_stats=stats,
        )

    # ------------------------------------------------------------------
    def _replay(self, transcripts: list[list[SentMessage]]) -> None:
        """Carry the transcripts on the shared link, in file order."""
        # Each file's outbox: what the shared link has not carried yet.
        pending = deque(deque(transcript) for transcript in transcripts)
        active = [
            pending.popleft() for _ in range(min(self.window, len(pending)))
        ]
        direction = Direction.CLIENT_TO_SERVER
        while active:
            runs = []
            index = 0
            while index < len(active):
                outbox = active[index]
                run = []
                while outbox and outbox[0].direction is direction:
                    run.append(outbox.popleft())
                runs.append(run)
                if outbox:
                    index += 1
                else:
                    del active[index]
                    if pending:
                        active.append(pending.popleft())
            if any(runs):
                self._send_batch(direction, runs)
            direction = direction.opposite

    # ------------------------------------------------------------------
    def _send_batch(
        self, direction: Direction, runs: list[list[SentMessage]]
    ) -> None:
        """Carry one batch of runs, one per in-flight file, on the
        shared link."""
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
