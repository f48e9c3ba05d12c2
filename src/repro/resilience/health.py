"""Windowed link-health estimation from per-attempt evidence.

The supervisor already *sees* everything a link does to it — corrupted
frames, dropped messages, disconnects, the retransmission bill of every
failed attempt — but until now it threw that evidence away between
attempts.  This module folds it into a single number:

* :class:`AttemptEvidence` — what one sync attempt observed: whether it
  succeeded, which fault kinds it suffered (taken from the
  :class:`~repro.net.faults.FaultPlan` log when available, otherwise
  classified from the raised error), the retransmitted vs. useful bits,
  and how many protocol rounds completed or were salvaged from
  checkpoints.
* :class:`LinkHealthMonitor` — a sliding window over recent attempts
  producing a ``score`` in ``[0, 1]``.  A pristine link scores exactly
  ``1.0`` (so the happy path reports the untouched default), a link that
  kills every attempt scores ``0.0``, and partial credit is given for
  attempts whose checkpointed rounds survived to be resumed.
* :class:`FailureSignature` / :func:`classify_failure` — the coarse
  taxonomy the adaptive supervisor routes on: corruption and drops are
  transient (retry the same rung), a disconnect is best answered by a
  checkpoint resume, and a decode/verification failure means the rung
  itself is beaten (descend the ladder).

Everything here is pure bookkeeping — no clocks, no randomness — so the
monitor is deterministic and picklable alongside the supervisor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import (
    ChannelClosedError,
    ChannelEmptyError,
    ChecksumMismatchError,
    DeltaFormatError,
    FrameCorruptionError,
    IntegrityError,
    ProtocolError,
    SyncStalledError,
)


class FailureSignature:
    """Coarse failure taxonomy for ladder routing (string enum).

    Plain strings rather than :class:`enum.Enum` so signatures serialise
    naturally into retry histories and soak reports.
    """

    CORRUPTION = "corruption"    # mangled/truncated frame: transient
    DROP = "drop"                # message vanished: transient
    DISCONNECT = "disconnect"    # link torn down: resume from checkpoint
    COLLISION = "collision"      # checksum mismatch: repair now, same rung
    DECODE = "decode"            # delta/verification failed: rung is beaten
    STALL = "stall"              # round circuit tripped: rung is beaten
    PROTOCOL = "protocol"        # malformed exchange: rung is beaten


#: Signatures the adaptive router answers by staying on the same rung.
#: A collision belongs here: the rung itself works — one unlucky truncated
#: hash matched the wrong block — so the answer is an immediate repair
#: retry on the same rung, not a descent to a coarser method.
TRANSIENT_SIGNATURES = frozenset(
    {FailureSignature.CORRUPTION, FailureSignature.DROP,
     FailureSignature.DISCONNECT, FailureSignature.COLLISION}
)


def classify_failure(error: BaseException) -> str:
    """Map a recoverable error to its :class:`FailureSignature`.

    Order matters: :class:`ChannelEmptyError` (a dropped message) is a
    subclass of :class:`ChannelClosedError` (the link is gone),
    :class:`ChecksumMismatchError` (a repairable collision) of
    :class:`IntegrityError` (decode corruption), and
    :class:`SyncStalledError` of :class:`ProtocolError`.
    """
    if isinstance(error, FrameCorruptionError):
        return FailureSignature.CORRUPTION
    if isinstance(error, ChannelEmptyError):
        return FailureSignature.DROP
    if isinstance(error, ChannelClosedError):
        return FailureSignature.DISCONNECT
    if isinstance(error, ChecksumMismatchError):
        return FailureSignature.COLLISION
    if isinstance(error, (DeltaFormatError, IntegrityError)):
        return FailureSignature.DECODE
    if isinstance(error, SyncStalledError):
        return FailureSignature.STALL
    if isinstance(error, ProtocolError):
        return FailureSignature.PROTOCOL
    return FailureSignature.PROTOCOL


@dataclass(frozen=True)
class AttemptEvidence:
    """What one sync attempt taught us about the link."""

    ok: bool
    signature: str | None = None
    corruption_events: int = 0
    drop_events: int = 0
    disconnect_events: int = 0
    retransmitted_bits: int = 0
    payload_bits: int = 0
    rounds_completed: int = 0
    rounds_salvaged: int = 0

    @property
    def fault_events(self) -> int:
        return (
            self.corruption_events
            + self.drop_events
            + self.disconnect_events
        )

    def attempt_score(self) -> float:
        """Health contribution of this one attempt, in ``[0, 1]``.

        * A clean success is ``1.0`` — no decay on the happy path.
        * A success that needed the link to absorb faults is discounted
          by the fraction of its traffic that was retransmission.
        * A failure whose rounds survived in a checkpoint journal scores
          ``0.25`` (the link is bad but progress sticks); a total loss
          scores ``0.0``.
        """
        if self.ok:
            if self.fault_events == 0 and self.retransmitted_bits == 0:
                return 1.0
            useful = max(1, self.payload_bits)
            wasted = self.retransmitted_bits / (useful + self.retransmitted_bits)
            return max(0.0, 1.0 - wasted)
        if self.rounds_salvaged > 0 or self.rounds_completed > 0:
            return 0.25
        return 0.0


#: Attempts the health score averages over.
HEALTH_WINDOW = 16


class LinkHealthMonitor:
    """Sliding-window health score over recent attempt evidence.

    The window of :data:`HEALTH_WINDOW` attempts bounds memory: an
    ancient outage stops depressing the score once enough clean attempts
    displace it.  ``score`` is the mean
    attempt score of the window — exactly ``1.0`` until the first blemish
    (the collection layer relies on that to keep happy-path reports
    byte-identical).  ``clean_streak`` counts consecutive trailing
    successes and is what lets the AIMD policy tighten again.
    """

    def __init__(self) -> None:
        self._attempts: deque[AttemptEvidence] = deque(maxlen=HEALTH_WINDOW)
        self.clean_streak = 0
        self.attempts_seen = 0
        self.failures_seen = 0

    def record(self, evidence: AttemptEvidence) -> None:
        self._attempts.append(evidence)
        self.attempts_seen += 1
        if evidence.ok and evidence.fault_events == 0:
            self.clean_streak += 1
        else:
            self.clean_streak = 0
        if not evidence.ok:
            self.failures_seen += 1

    @property
    def score(self) -> float:
        if not self._attempts:
            return 1.0
        return sum(e.attempt_score() for e in self._attempts) / len(
            self._attempts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkHealthMonitor(score={self.score:.3f}, "
            f"attempts={self.attempts_seen}, failures={self.failures_seen}, "
            f"clean_streak={self.clean_streak})"
        )


@dataclass
class FaultLogDelta:
    """Counts of fault events observed during one attempt.

    Built by diffing a :class:`~repro.net.faults.FaultPlan`'s log length
    before and after the attempt, so evidence reflects only *this*
    attempt's faults even though the plan is shared across attempts.
    """

    corruption: int = 0
    drops: int = 0
    disconnects: int = 0

    events: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.events = self.corruption + self.drops + self.disconnects


def fault_delta(plan, mark: int) -> FaultLogDelta:
    """Summarise plan faults recorded at or past log index ``mark``."""
    from repro.net.faults import FaultKind

    corruption = drops = disconnects = 0
    if plan is not None:
        for event in plan.fault_log[mark:]:
            if event.kind in (
                FaultKind.CORRUPT, FaultKind.TRUNCATE, FaultKind.COLLIDE
            ):
                corruption += 1
            elif event.kind is FaultKind.DROP:
                drops += 1
            elif event.kind is FaultKind.DISCONNECT:
                disconnects += 1
    return FaultLogDelta(corruption, drops, disconnects)
