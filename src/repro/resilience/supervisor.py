"""A supervisor that drives any sync method to completion on faulty links.

One file, one :class:`SyncSupervisor.sync_file` call.  The supervisor
runs the primary method over a fresh channel; when the attempt dies of a
recoverable error — a corrupted or truncated frame, a dropped message, a
mid-protocol disconnect, a failed integrity check — it retries under the
:class:`~repro.resilience.retry.RetryPolicy`, then walks down a fallback
ladder of progressively coarser (and progressively harder to kill)
methods: multiround rsync → plain rsync → compressed full transfer.
Multi-round reconciliation only pays off if a failed round degrades
gracefully instead of restarting the world; the ladder is that
degradation made explicit, and the returned
:class:`~repro.syncmethod.MethodOutcome` records which rung succeeded,
how many attempts were burnt, and what the recovery cost on the wire and
in (estimated) wall-clock.

With a :class:`~repro.resilience.checkpoint.CheckpointStore` the
supervisor additionally makes retries *cheap*: checkpoint-capable rungs
journal their state at every round boundary, and each retry first runs
the resume handshake (:func:`~repro.resilience.recovery.attempt_resume`)
to continue from the last completed round instead of restarting.  Only
the traffic past the newest durable checkpoint is then charged as
retransmission — the salvaged rounds were *not* wasted.

The adaptive layer (DESIGN §14) is strictly opt-in and leaves every
default-configured run byte-identical:

* an :class:`~repro.resilience.adaptive.AdaptiveRetryPolicy` feeds
  per-attempt evidence into its link-health monitor, widens/tightens the
  backoff by AIMD, and unlocks **failure-signature routing**: corruption
  and drops retry the same rung, a disconnect goes straight to a
  checkpoint-resume attempt with zero backoff, and decode/stall/protocol
  failures — which indict the rung, not the link — descend the ladder
  immediately instead of burning the remaining attempts;
* a :class:`~repro.resilience.adaptive.BreakerBoard` gives each file a
  circuit breaker that fails fast
  (:class:`~repro.exceptions.CircuitOpenError`) once the file has proven
  itself poisonous;
* ``deadline_s`` / a shared :class:`~repro.resilience.adaptive.DeadlineBudget`
  bound the simulated seconds a file / the whole run may spend; on
  breach the supervisor salvages the checkpointed rounds and raises
  :class:`~repro.exceptions.DeadlineExceededError` whose ``partial``
  outcome carries the full accounting for graceful degradation upstream.
"""

from __future__ import annotations

from repro.exceptions import (
    ChannelClosedError,
    ChecksumMismatchError,
    CircuitOpenError,
    DeadlineExceededError,
    DeltaFormatError,
    FrameCorruptionError,
    IntegrityError,
    ProtocolError,
    SyncFailedError,
)
from repro.net.channel import LinkModel, SimulatedChannel
from repro.net.faults import FaultPlan
from repro.net.metrics import Direction
from repro.resilience.adaptive import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    DeadlineBudget,
)
from repro.resilience.checkpoint import CheckpointStore, RoundCheckpoint
from repro.resilience.health import (
    AttemptEvidence,
    FailureSignature,
    TRANSIENT_SIGNATURES,
    classify_failure,
    fault_delta,
)
from repro.resilience.retry import RetryPolicy
from repro.syncmethod import MethodOutcome, SyncMethod

#: Errors a retry can plausibly cure.  Everything else (ConfigError,
#: programming errors) propagates immediately.
RECOVERABLE_ERRORS = (
    FrameCorruptionError,
    ProtocolError,
    ChannelClosedError,  # includes ChannelEmptyError (dropped messages)
    IntegrityError,
    DeltaFormatError,
)


def default_ladder(primary: SyncMethod) -> list[SyncMethod]:
    """The degradation ladder below ``primary``: multiround → rsync → full.

    Rungs sharing the primary's name are dropped, so e.g. supervising
    plain rsync degrades straight to the full transfer.
    """
    from repro.bench.methods import (
        FullTransferMethod,
        MultiroundRsyncMethod,
        RsyncMethod,
    )

    ladder: list[SyncMethod] = [
        MultiroundRsyncMethod(),
        RsyncMethod(),
        FullTransferMethod(),
    ]
    return [rung for rung in ladder if rung.name != primary.name]


def _waste_after(
    channel: SimulatedChannel, head: "RoundCheckpoint | None"
) -> tuple[int, float]:
    """Wire bytes and wall-clock a failed attempt definitively burnt.

    Without a checkpoint head, everything the channel carried is waste
    (the PR-2 accounting, unchanged).  With one, traffic up to the head
    will be salvaged by the next attempt's resume — only the tail past
    the last durable boundary, plus link-level retransmissions, is lost.
    """
    stats = channel.stats
    if head is None:
        return (
            stats.total_bytes + stats.retransmitted_bytes,
            channel.estimated_transfer_time(),
        )
    c2s = max(
        0,
        stats.client_to_server_bytes
        - head.bytes_in_direction(Direction.CLIENT_TO_SERVER),
    )
    s2c = max(
        0,
        stats.server_to_client_bytes
        - head.bytes_in_direction(Direction.SERVER_TO_CLIENT),
    )
    roundtrips = max(0, stats.roundtrips - head.roundtrips)
    return (
        c2s + s2c + stats.retransmitted_bytes,
        channel.link.transfer_time_directional(c2s, s2c, roundtrips),
    )


class SyncSupervisor(SyncMethod):
    """Wrap a :class:`SyncMethod` with retry, backoff and fallback.

    Parameters
    ----------
    method:
        The primary per-file method.
    retry:
        Attempt budget and backoff schedule *per ladder rung* — a static
        :class:`RetryPolicy` or an
        :class:`~repro.resilience.adaptive.AdaptiveRetryPolicy` (which
        additionally enables failure-signature ladder routing and the
        link-health monitor).
    ladder:
        Fallback methods tried in order once the primary's attempts are
        exhausted; defaults to :func:`default_ladder`.
    fault_plan:
        Optional :class:`~repro.net.faults.FaultPlan`; when given, every
        attempt runs over a fresh fault-injected channel advancing the
        shared plan (so retries see fresh randomness, not the same fault
        replayed).  Without a plan, attempts run over clean channels and
        the supervisor is pure pass-through on the happy path.
    link:
        Link model used for the channels and for pricing recovery time.
    checkpoints:
        Optional :class:`~repro.resilience.checkpoint.CheckpointStore`.
        When given, checkpoint-capable rungs journal every completed
        round and each retry attempts the resume handshake first,
        continuing from the last durable boundary.  ``None`` (default)
        reproduces PR-2 behaviour byte for byte.
    breakers:
        Optional :class:`~repro.resilience.adaptive.BreakerBoard` giving
        every file a circuit breaker; a refused attempt raises
        :class:`~repro.exceptions.CircuitOpenError` with partial
        accounting attached.
    deadline_s:
        Optional per-file budget of simulated seconds (backoff + wasted
        transfer + successful transfer).  Breach raises
        :class:`~repro.exceptions.DeadlineExceededError` *between*
        attempts, leaving checkpoints intact for a later resume.
    budget:
        Optional shared :class:`~repro.resilience.adaptive.DeadlineBudget`
        charged by every supervised file — the run-level deadline.
    """

    def __init__(
        self,
        method: SyncMethod,
        retry: "RetryPolicy | AdaptiveRetryPolicy | None" = None,
        ladder: list[SyncMethod] | None = None,
        fault_plan: FaultPlan | None = None,
        link: LinkModel | None = None,
        checkpoints: CheckpointStore | None = None,
        breakers: BreakerBoard | None = None,
        deadline_s: float | None = None,
        budget: DeadlineBudget | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.method = method
        self.retry = retry or RetryPolicy()
        self.ladder = default_ladder(method) if ladder is None else ladder
        self.fault_plan = fault_plan
        self.link = link
        self.checkpoints = checkpoints
        self.breakers = breakers
        self.deadline_s = deadline_s
        self.budget = budget
        self.name = f"supervised({method.name})"

    # ------------------------------------------------------------------
    def _make_channel(self) -> SimulatedChannel:
        if self.fault_plan is not None:
            return self.fault_plan.channel(self.link)
        return SimulatedChannel(self.link)

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        """Synchronise one file pair, surviving recoverable failures."""
        return self.sync_named_file(None, old, new)

    def sync_named_file(
        self, name: str | None, old: bytes, new: bytes
    ) -> MethodOutcome:
        """Synchronise one named file pair, surviving recoverable failures.

        ``name`` keys the per-file checkpoint journal (when a store is
        configured) and the circuit breaker (when a board is configured);
        ``None`` is valid and shares the anonymous journal/breaker.
        """
        from repro.resilience.recovery import attempt_resume

        adaptive = isinstance(self.retry, AdaptiveRetryPolicy)
        monitor = self.retry.monitor if adaptive else None
        breaker = (
            self.breakers.breaker(name) if self.breakers is not None else None
        )
        breaker_opens_before = breaker.opens if breaker is not None else 0

        retries = 0
        retransmitted_bytes = 0
        recovery_seconds = 0.0
        adaptive_backoff_s = 0.0
        rounds_salvaged = 0
        resume_handshake_bits = 0
        checkpoint_bytes = 0
        spent_s = 0.0
        history: list[str] = []

        def charge(seconds: float) -> None:
            nonlocal spent_s
            spent_s += seconds
            if self.breakers is not None:
                self.breakers.advance(seconds)
            if self.budget is not None:
                self.budget.charge(seconds)

        def attempts_cost(
            journal, deadline_salvages: int = 0, correct: bool = True
        ) -> MethodOutcome:
            """What the failed attempts so far cost, as a zero-byte outcome
            (``correct=False``: the partial accounting of a typed failure)."""
            return MethodOutcome(
                total_bytes=0,
                correct=correct,
                retries=retries,
                retransmitted_bytes=retransmitted_bytes,
                recovery_seconds=recovery_seconds,
                rounds_salvaged=rounds_salvaged,
                resume_handshake_bits=resume_handshake_bits,
                checkpoint_bytes_written=checkpoint_bytes
                + (journal.bytes_written if journal is not None else 0),
                health_score=monitor.score if monitor is not None else 1.0,
                breaker_opens=(
                    breaker.opens - breaker_opens_before
                    if breaker is not None
                    else 0
                ),
                deadline_salvages=deadline_salvages,
                adaptive_backoff_s=adaptive_backoff_s,
            )

        for rung in [self.method, *self.ladder]:
            journal = None
            identity = None
            if self.checkpoints is not None and rung.supports_checkpoint:
                journal = self.checkpoints.journal(name)
                identity = rung.checkpoint_identity(old, new)
                journal.open(identity, resume=self.checkpoints.resume)
            for _attempt in range(self.retry.max_attempts):
                # --- pre-attempt gates (no-ops unless configured) -----
                if breaker is not None and not breaker.allow(
                    self.breakers.clock
                ):
                    raise CircuitOpenError(
                        f"circuit open for {name or '<anonymous>'} after "
                        f"{breaker.consecutive_failures} consecutive "
                        f"failures ({breaker.opens} opens)",
                        attempts=retries,
                        history=tuple(history),
                        partial=attempts_cost(journal, correct=False),
                    )
                over_deadline = (
                    self.deadline_s is not None and spent_s >= self.deadline_s
                )
                over_budget = self.budget is not None and self.budget.exhausted
                if over_deadline or over_budget:
                    head = journal.head() if journal is not None else None
                    salvages = head.round_index if head is not None else 0
                    scope = "file deadline" if over_deadline else "run budget"
                    raise DeadlineExceededError(
                        f"{scope} exhausted after {spent_s:.1f}s simulated "
                        f"({retries} attempts burnt, {salvages} checkpointed "
                        f"rounds salvaged)",
                        attempts=retries,
                        history=tuple(history),
                        partial=attempts_cost(
                            journal, deadline_salvages=salvages, correct=False
                        ),
                    )

                fault_mark = (
                    len(self.fault_plan.fault_log)
                    if self.fault_plan is not None
                    else 0
                )
                channel = self._make_channel()
                resume_state: RoundCheckpoint | None = None
                try:
                    if journal is not None:
                        resume_state, handshake_bits = attempt_resume(
                            journal, identity, channel
                        )
                        resume_handshake_bits += handshake_bits
                        outcome = rung.sync_file_resumable(
                            old,
                            new,
                            channel,
                            checkpointer=journal,
                            resume_from=resume_state,
                        )
                    else:
                        outcome = rung.sync_file_over(old, new, channel)
                    if not outcome.correct:
                        # Wrong bytes that slipped past the protocol's own
                        # fingerprint+repair machinery: a checksum mismatch
                        # worth an immediate same-rung retry, not a rung
                        # descent.
                        raise ChecksumMismatchError(
                            f"{rung.name} reconstructed the wrong bytes"
                        )
                except RECOVERABLE_ERRORS as error:
                    retries += 1
                    history.append(f"{rung.name}: {type(error).__name__}")
                    # The failed attempt's bytes crossed the wire for
                    # nothing — minus whatever a checkpointed resume will
                    # salvage; charge the rest (and the backoff) to
                    # recovery.
                    head = journal.head() if journal is not None else None
                    wasted_bytes, wasted_seconds = _waste_after(channel, head)
                    retransmitted_bytes += wasted_bytes
                    signature = None
                    if adaptive:
                        signature = classify_failure(error)
                        faults = fault_delta(self.fault_plan, fault_mark)
                        monitor.record(
                            AttemptEvidence(
                                ok=False,
                                signature=signature,
                                corruption_events=faults.corruption,
                                drop_events=faults.drops,
                                disconnect_events=faults.disconnects,
                                retransmitted_bits=wasted_bytes * 8,
                                payload_bits=channel.stats.total_bytes * 8,
                                rounds_completed=(
                                    head.round_index if head is not None else 0
                                ),
                                rounds_salvaged=(
                                    head.round_index if head is not None else 0
                                ),
                            )
                        )
                        self.retry.note_failure(signature)
                        # A disconnect with a durable checkpoint resumes
                        # immediately: the link already came back (the
                        # plan disarms one-shot disconnects) and every
                        # second of backoff only re-exposes the window.
                        # A checksum mismatch is repaired now for the same
                        # reason: the collision is content luck, not link
                        # weather — waiting cannot improve the odds.
                        if (
                            signature == FailureSignature.DISCONNECT
                            and head is not None
                        ) or signature == FailureSignature.COLLISION:
                            backoff = 0.0
                        else:
                            backoff = self.retry.backoff_seconds(retries)
                        adaptive_backoff_s += backoff
                    else:
                        backoff = self.retry.backoff_seconds(retries)
                    recovery_seconds += backoff + wasted_seconds
                    charge(backoff + wasted_seconds)
                    if breaker is not None:
                        breaker.record_failure(self.breakers.clock)
                    if (
                        adaptive
                        and signature not in TRANSIENT_SIGNATURES
                    ):
                        # Decode/stall/protocol failures indict the rung,
                        # not the link: burning the remaining attempts on
                        # it cannot help.  Descend the ladder now.
                        break
                    continue
                # --- success ------------------------------------------
                charge(channel.estimated_transfer_time())
                if breaker is not None:
                    breaker.record_success(self.breakers.clock)
                if resume_state is not None:
                    rounds_salvaged += resume_state.round_index
                if journal is not None:
                    checkpoint_bytes += journal.bytes_written
                    journal.commit()
                if adaptive:
                    faults = fault_delta(self.fault_plan, fault_mark)
                    monitor.record(
                        AttemptEvidence(
                            ok=True,
                            corruption_events=faults.corruption,
                            drop_events=faults.drops,
                            disconnect_events=faults.disconnects,
                            payload_bits=channel.stats.total_bytes * 8,
                            rounds_salvaged=(
                                resume_state.round_index
                                if resume_state is not None
                                else 0
                            ),
                        )
                    )
                    self.retry.note_success()
                # The failed attempts' cost rides on the one that
                # succeeded; the link-health estimate is the monitor's
                # latest, not the worst seen.
                outcome = outcome + attempts_cost(None)
                if adaptive:
                    outcome.health_score = monitor.score
                if rung is not self.method:
                    outcome.fallback_method = rung.name
                return outcome
            if journal is not None:
                # Abandoning this rung abandons its checkpoints: traffic
                # previously excluded from waste as "salvageable" is now
                # definitively lost — settle the bill before descending.
                checkpoint_bytes += journal.bytes_written
                head = journal.head()
                if head is not None:
                    link = self.link or LinkModel()
                    retransmitted_bytes += head.total_bytes
                    abandoned_seconds = link.transfer_time_directional(
                        head.bytes_in_direction(Direction.CLIENT_TO_SERVER),
                        head.bytes_in_direction(Direction.SERVER_TO_CLIENT),
                        head.roundtrips,
                    )
                    recovery_seconds += abandoned_seconds
                    charge(abandoned_seconds)

        raise SyncFailedError(
            f"all ladder rungs failed after {retries} attempts "
            f"({' -> '.join(history)})",
            attempts=retries,
            history=tuple(history),
            partial=attempts_cost(None, correct=False),
        )
