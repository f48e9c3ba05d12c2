"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProtocolError(ReproError):
    """A synchronization protocol received a malformed or unexpected message."""


class TruncatedMessageError(ProtocolError, EOFError):
    """A bit-packed message ended before the value being read.

    It is also an :class:`EOFError`, so code that catches running out of
    input generically still does.
    """


class SyncStalledError(ProtocolError):
    """A session exceeded its round circuit without converging.

    Multi-round protocols normally converge in ``O(log(file size))``
    rounds; adversarial corruption of MAP frames (or a bug) can instead
    keep the frontier alive forever.  The round circuit turns that
    unbounded loop into a typed, recoverable failure the supervisor can
    route to a coarser ladder rung.
    """


class ChannelClosedError(ReproError):
    """An endpoint attempted to use a channel that has been closed."""


class ChannelEmptyError(ChannelClosedError):
    """A receive found no pending message in the requested direction.

    Historically the channel raised :class:`ChannelClosedError` for this
    case even when the channel was open; the subclass keeps existing
    ``except ChannelClosedError`` handlers working while letting new code
    distinguish "nothing arrived" (a dropped message, a protocol running
    ahead of its peer) from "the link is gone".
    """


class FrameCorruptionError(ReproError):
    """A framed message failed its length or CRC32 check.

    Raised at the receiving end of a checksummed channel
    (:mod:`repro.net.frame`) when bit-flips or truncation mangled a frame
    in flight.  Recoverable: the supervisor retries the round.
    """


class DeltaFormatError(ReproError):
    """A delta stream could not be decoded."""


class IntegrityError(ReproError):
    """A reconstructed file failed its whole-file checksum.

    The protocols detect (extremely unlikely) hash-collision failures with a
    strong whole-file checksum; this error signals that the fallback path
    (full transfer) had to be taken or that decoding produced bad data.

    Unqualified, this means *decode corruption*: the bytes are wrong for a
    reason no protocol retry can cure (a beaten rung — the ladder should
    descend).  The repairable flavour is :class:`ChecksumMismatchError`.
    """


class ChecksumMismatchError(IntegrityError):
    """A reconstruction diverged from the expected fingerprint but is
    structurally sound — the signature of a weak-hash block collision.

    Unlike its parent (decode corruption: the rung is beaten), this is
    *recoverable in place*: the divergence is localized to a handful of
    blocks that a surgical repair round (or, at worst, one full transfer
    on the same rung) can fix.  ``classify_failure`` routes it as
    repair-now rather than ladder-descend.
    """


class ConfigError(ReproError):
    """A protocol or workload configuration is invalid."""


class WorkloadError(ReproError):
    """A synthetic workload could not be generated as requested."""


class StoreNameError(ReproError, ValueError):
    """A collection entry name would escape the store's root directory.

    Also a :class:`ValueError`, which callers caught before it was typed.
    """


class ResumeRefusedError(ReproError):
    """A resumable run was requested but cannot be honoured.

    Raised when a :class:`~repro.resilience.CheckpointStore` is built with
    ``resume=True`` but no durable root to resume *from* — silently
    starting over would hide exactly the restart cost the caller tried to
    avoid.
    """


class SyncFailedError(ReproError):
    """Every rung of the resilience ladder failed for one file.

    Carries the retry/fallback history so callers (and per-file error
    isolation in the collection layer) can report what was attempted.
    ``partial`` (when set) is a :class:`~repro.syncmethod.MethodOutcome`
    with ``correct=False`` carrying the accounting of the doomed attempts
    — retransmission, backoff, salvaged rounds — so a captured failure
    still shows up in collection-level counters instead of vanishing.
    """

    def __init__(self, message: str, attempts: int = 0,
                 history: tuple[str, ...] = (),
                 partial=None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.history = history
        self.partial = partial


class DeadlineExceededError(SyncFailedError):
    """A file (or run) deadline budget ran out before the sync completed.

    Raised by the supervisor *between* attempts — never mid-attempt — so
    any durable checkpoints stay intact for a later resume.  The
    ``partial`` outcome records what the expired attempts cost and how
    many checkpointed rounds were salvaged for the future.
    """


class CircuitOpenError(SyncFailedError):
    """A per-file circuit breaker refused the attempt.

    After ``failure_threshold`` consecutive failures the breaker opens
    and fails fast for a cooldown period (simulated time), so one
    poisoned file cannot consume the run's retry budget.  A half-open
    probe is admitted once the cooldown elapses.
    """
