"""Configuration of the multi-round synchronization protocol.

The paper's prototype is driven by "a simple parameter file ... to specify
all the options and techniques that should be used in each round";
:class:`ProtocolConfig` plays that role.  The defaults correspond to the
paper's best practical setting: recursive halving with decomposable
hashes, two-phase rounds (continuation hashes first), and two-batch group
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import ConfigError
from repro.grouptesting.strategies import VerificationStrategy, make_strategy

#: Upper bound on the automatically chosen starting block size.
MAX_START_BLOCK_SIZE = 32768


@dataclass(frozen=True)
class ProtocolConfig:
    """All tunables of the map-construction phase.

    The delta phase always ends with zdelta
    (:func:`~repro.delta.encoder.zdelta_encode`).

    Parameters
    ----------
    start_block_size:
        Block size of the first round.  ``None`` picks a size based on the
        server file length (roughly ``n / 4``, clamped).
    min_block_size:
        Smallest block size for which *global* hashes (compared against
        every client position) are sent.  Figures 6.1/6.2 sweep this.
    continuation_min_block_size:
        Smallest block size for which *continuation* hashes (compared only
        at positions adjacent to confirmed matches) are sent; may be much
        smaller than ``min_block_size`` because the hashes are tiny.
        ``None`` disables continuation hashes.
    continuation_first:
        Split every round into a continuation sub-phase followed by a
        global sub-phase, enabling the paper's omission rules (skip global
        hashes for blocks whose sibling matched, or whose own continuation
        hash just failed).
    use_decomposable:
        Suppress the right sibling's global hash whenever the client can
        derive it from the parent's and the left sibling's.
    global_hash_bits:
        Width of global candidate hashes.  ``None`` uses
        ``ceil(log2(n)) + 3`` for a client file of length ``n`` (enough to
        keep the expected number of false candidates per hash near 1/8;
        verification mops up the rest).
    continuation_hash_bits:
        Width of continuation hashes (the paper uses 4–8 bits).
    use_local_hashes / local_hash_bits / local_neighborhood:
        The paper's local-hash variant: intermediate-width hashes compared
        only within a neighborhood of confirmed matches.  Off by default —
        the paper "were unable to get any significant improvements".
    verification:
        Name of a :mod:`repro.grouptesting.strategies` strategy.
    max_candidate_positions:
        How many client positions per global hash are considered before
        picking the verification candidate.
    hash_seed:
        Seed of the decomposable hash's substitution table; both parties
        derive the same table from it.  A whole-file checksum failure is
        not answered by re-running under another seed (the paper: "the
        algorithm could be repeated with different hashes, or we can
        simply transfer the entire file") but by the repair descent
        under a fresh salt (:func:`~repro.core.repair.integrity_endgame`).
    """

    start_block_size: int | None = None
    min_block_size: int = 64
    continuation_min_block_size: int | None = 16
    continuation_first: bool = True
    use_decomposable: bool = True
    global_hash_bits: int | None = None
    continuation_hash_bits: int = 6
    use_local_hashes: bool = False
    local_hash_bits: int = 10
    local_neighborhood: int = 4096
    verification: str = "group2"
    max_candidate_positions: int = 4
    hash_seed: int = 1
    #: Stop map construction after this many rounds (block-size levels)
    #: and go straight to the delta.  ``None`` recurses to the floor.
    #: The paper's §7 asks how well one can do "restricted to just one or
    #: two round-trips"; this knob answers it (see the rounds ablation).
    max_rounds: int | None = None
    #: Record a per-sub-phase :class:`~repro.core.trace.SubphaseTrace` on
    #: the result (hash counts by kind, bits, candidates, confirmations).
    collect_trace: bool = False
    #: After map construction, binary-search the exact byte boundary of
    #: each confirmed match into its neighbouring gap (the §5.4
    #: searching-with-liars game), so the delta no longer carries bytes
    #: the client already holds below block granularity.
    refine_boundaries: bool = False
    #: Width of each refinement probe hash (the lying oracle's answer).
    refinement_hash_bits: int = 8
    #: Width of the final boundary confirmation hash.
    refinement_confirm_bits: int = 16

    def __post_init__(self) -> None:
        if self.start_block_size is not None and self.start_block_size < 2:
            raise ConfigError(
                f"start_block_size must be >= 2, got {self.start_block_size}"
            )
        if self.min_block_size < 2:
            raise ConfigError(
                f"min_block_size must be >= 2, got {self.min_block_size}"
            )
        if (
            self.start_block_size is not None
            and self.start_block_size < self.min_block_size
        ):
            raise ConfigError("start_block_size must be >= min_block_size")
        if self.continuation_min_block_size is not None:
            if self.continuation_min_block_size < 2:
                raise ConfigError("continuation_min_block_size must be >= 2")
            if self.continuation_min_block_size > self.min_block_size:
                raise ConfigError(
                    "continuation_min_block_size must not exceed min_block_size"
                )
        if not 1 <= self.continuation_hash_bits <= 16:
            raise ConfigError(
                "continuation_hash_bits must be in [1, 16], got "
                f"{self.continuation_hash_bits}"
            )
        if self.global_hash_bits is not None and not 4 <= self.global_hash_bits <= 32:
            raise ConfigError(
                f"global_hash_bits must be in [4, 32], got {self.global_hash_bits}"
            )
        if not 1 <= self.local_hash_bits <= 32:
            raise ConfigError(
                f"local_hash_bits must be in [1, 32], got {self.local_hash_bits}"
            )
        if self.local_neighborhood < 1:
            raise ConfigError("local_neighborhood must be positive")
        if self.max_candidate_positions < 1:
            raise ConfigError("max_candidate_positions must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1 or None")
        if not 1 <= self.refinement_hash_bits <= 32:
            raise ConfigError("refinement_hash_bits must be in [1, 32]")
        if not 4 <= self.refinement_confirm_bits <= 64:
            raise ConfigError("refinement_confirm_bits must be in [4, 64]")
        # Validates the name eagerly.
        make_strategy(self.verification)

    @property
    def continuation_enabled(self) -> bool:
        return self.continuation_min_block_size is not None

    @property
    def floor_block_size(self) -> int:
        """Smallest block size any technique may hash."""
        if self.continuation_enabled:
            assert self.continuation_min_block_size is not None
            return self.continuation_min_block_size
        return self.min_block_size

    def strategy(self) -> VerificationStrategy:
        """The verification strategy object."""
        return make_strategy(self.verification)

    def resolve_start_block_size(self, server_length: int) -> int:
        """Starting block size for a server file of ``server_length`` bytes."""
        if self.start_block_size is not None:
            return self.start_block_size
        if server_length <= 4 * self.min_block_size:
            return max(self.min_block_size, 2)
        target = max(self.min_block_size * 4, server_length // 4)
        size = 1 << int(math.ceil(math.log2(target)))
        return min(size, MAX_START_BLOCK_SIZE)

    def resolve_global_hash_bits(self, client_length: int) -> int:
        """Width of global candidate hashes for a client file of ``n`` bytes."""
        if self.global_hash_bits is not None:
            return self.global_hash_bits
        bits = int(math.ceil(math.log2(max(client_length, 2)))) + 3
        return max(8, min(bits, 30))

    def with_overrides(self, **changes: object) -> "ProtocolConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)  # type: ignore[arg-type]
