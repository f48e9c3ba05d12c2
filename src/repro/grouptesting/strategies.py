"""Verification strategies described as sequences of hash batches.

A strategy is a list of :class:`BatchSpec`.  Each batch sends one hash
per *unit* (a single candidate or a group of candidates) from client to
server; the server replies with one confirmation bit per unit.  Batches are
applied to:

* ``ALL`` — every still-undecided candidate;
* ``SURVIVORS`` — candidates that passed every previous batch;
* ``FAILED_GROUP_MEMBERS`` — members of groups that failed the previous
  batch (the paper's "salvage" idea).

A candidate is *accepted* once it has passed the final batch that covers
it; failing any individual batch rejects it; candidates in a failed group
are rejected unless a later salvage batch covers them.

The concrete strategies mirror the five settings of Figure 6.4:

``trivial``
    one batch of 16-bit per-candidate hashes (rsync-strength, 1 roundtrip);
``light``
    one batch of 12-bit per-candidate hashes ("slightly smarter");
``group1``
    one batch of 20-bit hashes over groups of 4 (1 roundtrip);
``group2``
    8-bit individual filter, then 16-bit groups of 8 (2 roundtrips);
``group3``
    6-bit individual filter, 16-bit groups of 8, then 12-bit individual
    salvage of failed groups (3 roundtrips).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.exceptions import ConfigError


class BatchMode(Enum):
    """Whether a batch hashes candidates individually or in groups."""

    INDIVIDUAL = "individual"
    GROUP = "group"


class BatchScope(Enum):
    """Which candidates a batch covers."""

    ALL = "all"
    SURVIVORS = "survivors"
    FAILED_GROUP_MEMBERS = "failed_group_members"


@dataclass(frozen=True)
class BatchSpec:
    """One verification batch: mode, hash width, group size, scope."""

    mode: BatchMode
    bits: int
    group_size: int = 1
    scope: BatchScope = BatchScope.ALL

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 64:
            raise ConfigError(f"batch bits must be in [1, 64], got {self.bits}")
        if self.mode is BatchMode.GROUP and self.group_size < 2:
            raise ConfigError(
                f"group batches need group_size >= 2, got {self.group_size}"
            )
        if self.mode is BatchMode.INDIVIDUAL and self.group_size != 1:
            raise ConfigError("individual batches must have group_size == 1")


@dataclass(frozen=True)
class VerificationStrategy:
    """A named sequence of verification batches."""

    name: str
    batches: tuple[BatchSpec, ...]

    def __post_init__(self) -> None:
        if not self.batches:
            raise ConfigError("a strategy needs at least one batch")
        if self.batches[0].scope is not BatchScope.ALL:
            raise ConfigError("the first batch must cover ALL candidates")
        for batch in self.batches[1:]:
            if batch.scope is BatchScope.ALL:
                raise ConfigError("only the first batch may cover ALL")

    @property
    def roundtrips(self) -> int:
        """Client→server verification batches (one roundtrip each)."""
        return len(self.batches)

    @property
    def total_individual_bits(self) -> int:
        """Sum of per-candidate bits over individual ALL/SURVIVORS batches."""
        return sum(
            batch.bits
            for batch in self.batches
            if batch.mode is BatchMode.INDIVIDUAL
            and batch.scope is not BatchScope.FAILED_GROUP_MEMBERS
        )


_STRATEGIES: dict[str, VerificationStrategy] = {
    "trivial": VerificationStrategy(
        "trivial", (BatchSpec(BatchMode.INDIVIDUAL, bits=16),)
    ),
    "light": VerificationStrategy(
        "light", (BatchSpec(BatchMode.INDIVIDUAL, bits=12),)
    ),
    "group1": VerificationStrategy(
        "group1", (BatchSpec(BatchMode.GROUP, bits=20, group_size=4),)
    ),
    "group2": VerificationStrategy(
        "group2",
        (
            BatchSpec(BatchMode.INDIVIDUAL, bits=8),
            BatchSpec(
                BatchMode.GROUP,
                bits=16,
                group_size=8,
                scope=BatchScope.SURVIVORS,
            ),
        ),
    ),
    "group3": VerificationStrategy(
        "group3",
        (
            BatchSpec(BatchMode.INDIVIDUAL, bits=6),
            BatchSpec(
                BatchMode.GROUP,
                bits=16,
                group_size=8,
                scope=BatchScope.SURVIVORS,
            ),
            BatchSpec(
                BatchMode.INDIVIDUAL,
                bits=12,
                scope=BatchScope.FAILED_GROUP_MEMBERS,
            ),
        ),
    ),
}


def strategy_names() -> list[str]:
    """Names accepted by :func:`make_strategy`."""
    return sorted(_STRATEGIES)


def make_strategy(name: str) -> VerificationStrategy:
    """Look up a verification strategy by name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown verification strategy {name!r}; "
            f"choose from {strategy_names()}"
        ) from None

