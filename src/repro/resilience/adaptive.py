"""Health-aware adaptive retry: AIMD backoff, breakers, deadlines.

:class:`~repro.resilience.retry.RetryPolicy` charges the same schedule
whatever the link is doing.  This module adapts, in the same
simulated-time contract (nothing sleeps; every second is an estimate
charged to recovery accounting):

* :class:`AdaptiveRetryPolicy` — wraps a static schedule in an AIMD
  scale: each failure widens the backoff multiplicatively (the link is
  worse than we thought — stop hammering it), each sustained clean
  streak tightens it additively (the link recovered — stop dawdling).
  Deterministic seeded jitter decorrelates retry timing without
  sacrificing reproducibility.  The embedded
  :class:`~repro.resilience.health.LinkHealthMonitor` turns per-attempt
  evidence into the ``health_score`` reported per file.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-file fail-fast:
  after ``failure_threshold`` consecutive failures the breaker opens and
  refuses further attempts (:class:`~repro.exceptions.CircuitOpenError`)
  until a cooldown of *simulated* seconds has been charged elsewhere in
  the run, after which one half-open probe is admitted.  One poisoned
  file can no longer consume the run's retry budget.
* :class:`DeadlineBudget` — a shared pot of simulated seconds (per file
  or per run).  When it runs dry the supervisor salvages whatever round
  checkpoints exist and degrades gracefully
  (:class:`~repro.exceptions.DeadlineExceededError` carries the partial
  accounting) instead of retrying forever.

See DESIGN.md §14.
"""

from __future__ import annotations

import random

from repro.resilience.health import LinkHealthMonitor, TRANSIENT_SIGNATURES
from repro.resilience.retry import RetryPolicy


#: Seed of the jitter RNG: runs stay reproducible.
JITTER_SEED = 0
#: Jitter is a uniform ``±JITTER`` fraction of each backoff.
JITTER = 0.1
#: Each transient failure multiplies the backoff scale by this ...
WIDEN_FACTOR = 2.0
#: ... up to this cap.
MAX_WIDEN = 8.0
#: A clean streak this many attempts long ...
TIGHTEN_AFTER = 2
#: ... subtracts this from the scale ...
TIGHTEN_STEP = 0.25
#: ... down to this floor.
MIN_SCALE = 0.25


class AdaptiveRetryPolicy:
    """AIMD backoff around the static :class:`RetryPolicy` schedule.

    Duck-types the static policy's interface (``max_attempts``,
    ``backoff_seconds``) so the supervisor can hold either.  The backoff
    actually charged is ``schedule * scale * jitter`` where ``scale``
    starts at 1.0, multiplies by :data:`WIDEN_FACTOR` on every transient
    failure (up to :data:`MAX_WIDEN`) and subtracts :data:`TIGHTEN_STEP`
    after every :data:`TIGHTEN_AFTER`-long clean streak (down to
    :data:`MIN_SCALE`).  Jitter is a deterministic ``±JITTER`` fraction
    from an RNG seeded with :data:`JITTER_SEED`, drawn once per backoff
    in charge order.

    The policy is stateful and belongs to one supervisor; the parallel
    executor pickles the supervisor per chunk, giving every chunk an
    identical fresh copy — runs stay deterministic for a fixed chunking.
    """

    def __init__(self, max_attempts: int = 3) -> None:
        self.schedule = RetryPolicy(max_attempts=max_attempts)
        self.monitor = LinkHealthMonitor()
        self._rng = random.Random(JITTER_SEED)
        self._scale = 1.0

    # -- static-policy interface --------------------------------------
    @property
    def max_attempts(self) -> int:
        return self.schedule.max_attempts

    @property
    def scale(self) -> float:
        return self._scale

    def backoff_seconds(self, failed_attempts: int) -> float:
        """Scaled, jittered backoff after the ``failed_attempts``-th
        failure.  Consumes one RNG draw; call exactly once per charge."""
        base = self.schedule.backoff_seconds(failed_attempts)
        jittered = 1.0 + JITTER * (2.0 * self._rng.random() - 1.0)
        return base * self._scale * jittered

    # -- AIMD control loop --------------------------------------------
    def note_failure(self, signature: str | None = None) -> None:
        """Widen multiplicatively: the link just burnt an attempt.

        Non-transient signatures (decode, stall, protocol) indict the
        *rung*, not the link, so they do not widen the backoff — the
        router answers them by descending the ladder instead.
        """
        if signature is not None and signature not in TRANSIENT_SIGNATURES:
            return
        self._scale = min(self._scale * WIDEN_FACTOR, MAX_WIDEN)

    def note_success(self) -> None:
        """Tighten additively once the link has proven itself again."""
        if (
            self.monitor.clean_streak >= TIGHTEN_AFTER
            and self._scale > MIN_SCALE
        ):
            self._scale = max(MIN_SCALE, self._scale - TIGHTEN_STEP)


class BreakerState:
    """Circuit-breaker states (string enum, serialises into reports)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: How long an open breaker refuses attempts, in simulated seconds ...
BREAKER_COOLDOWN_S = 60.0
#: ... multiplied by this after each failed half-open probe ...
COOLDOWN_MULTIPLIER = 2.0
#: ... up to this cap.
MAX_COOLDOWN_S = 900.0


class CircuitBreaker:
    """Fail-fast guard for one file's retry budget, in simulated time.

    CLOSED admits every attempt.  ``failure_threshold`` *consecutive*
    failures trip it OPEN: attempts are refused until
    :data:`BREAKER_COOLDOWN_S` simulated seconds pass on the caller's
    clock, after which the next ``allow`` admits a single HALF_OPEN
    probe.  A successful probe closes the breaker and resets the
    cooldown; a failed one re-opens it with the cooldown multiplied by
    :data:`COOLDOWN_MULTIPLIER` (capped at :data:`MAX_COOLDOWN_S`), so a
    persistently dead file backs itself off the schedule entirely.
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._open_until = 0.0
        self._current_cooldown = BREAKER_COOLDOWN_S

    def allow(self, now: float) -> bool:
        """May an attempt proceed at simulated time ``now``?"""
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if now >= self._open_until:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if (
            self.state == BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)

    def record_success(self, now: float) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._current_cooldown = BREAKER_COOLDOWN_S

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opens += 1
        self._open_until = now + self._current_cooldown
        self._current_cooldown = min(
            self._current_cooldown * COOLDOWN_MULTIPLIER, MAX_COOLDOWN_S
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state}, "
            f"failures={self.consecutive_failures}, opens={self.opens})"
        )


class BreakerBoard:
    """Per-file breakers sharing one simulated clock.

    The clock advances whenever the supervisor charges simulated seconds
    (backoff, wasted transfer, successful transfer), so an open breaker's
    cooldown elapses as the *rest of the run* makes progress — exactly
    the semantics of "come back to this file later".
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        self.failure_threshold = failure_threshold
        self.clock = 0.0
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, name: str | None) -> CircuitBreaker:
        key = name if name is not None else "<anonymous>"
        found = self._breakers.get(key)
        if found is None:
            found = CircuitBreaker(self.failure_threshold)
            self._breakers[key] = found
        return found

    def advance(self, seconds: float) -> None:
        if seconds > 0.0:
            self.clock += seconds

    @property
    def total_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())


class DeadlineBudget:
    """A pot of simulated seconds shared by everything charged to it."""

    def __init__(self, total_s: float) -> None:
        if total_s <= 0.0:
            raise ValueError(f"total_s must be > 0, got {total_s}")
        self.total_s = total_s
        self.spent_s = 0.0

    def charge(self, seconds: float) -> None:
        if seconds > 0.0:
            self.spent_s += seconds

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.total_s - self.spent_s)

    @property
    def exhausted(self) -> bool:
        return self.spent_s >= self.total_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeadlineBudget(spent={self.spent_s:.1f}s "
            f"of {self.total_s:.1f}s)"
        )
