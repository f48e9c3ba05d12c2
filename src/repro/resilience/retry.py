"""Bounded retry with exponential backoff, in simulated time.

Nothing here sleeps: the simulation charges backoff to the same
wall-clock estimate that :class:`~repro.net.LinkModel` produces for
transfers, so benchmark rows can report how long recovery *would* take
on a given link without the test suite actually waiting for it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Backoff after the first failed attempt, in simulated seconds.
BASE_BACKOFF_S = 0.5
#: Factor the backoff grows by with each further failure.
BACKOFF_MULTIPLIER = 2.0
#: Ceiling of the backoff schedule.
MAX_BACKOFF_S = 30.0
#: First failure whose backoff sits at the ceiling: 0.5 · 2**6 >= 30.
_SATURATED_FROM = 7


@dataclass(frozen=True)
class RetryPolicy:
    """How often one ladder rung is retried.

    ``max_attempts`` bounds tries per rung (1 = no retry, fail straight
    to the next rung); after failed attempt *k* (1-based) the protocol
    backs off ``BASE_BACKOFF_S * BACKOFF_MULTIPLIER**(k-1)`` seconds,
    capped at ``MAX_BACKOFF_S``.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_seconds(self, failed_attempts: int) -> float:
        """Backoff charged after the ``failed_attempts``-th failure."""
        if failed_attempts < 1:
            raise ValueError(
                f"failed_attempts must be >= 1, got {failed_attempts}"
            )
        if failed_attempts >= _SATURATED_FROM:
            return MAX_BACKOFF_S
        return BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (failed_attempts - 1)
