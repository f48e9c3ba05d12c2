"""Predictive cost model for the protocol itself.

The theory module bounds what *any* protocol can do; this model predicts
what *ours* will do.  The file model is Bernoulli edits: each byte of
the server file is "dirty" independently with probability ``p``.  A
block of ``b`` bytes then matches with probability ``(1 - p) ** b``,
which yields, level by level:

* how many blocks stay active (their parent was dirty),
* how many hashes each level sends (halved by decomposability below the
  top level, shaved further by continuation hashes),
* the expected unmatched bytes left for the delta.

The model's point is not precision — real edits are clustered, which it
ignores — but *shape*: its cost curve over the minimum block size is
U-shaped like Figures 6.1/6.2, and its argmin lands near the measured
optimum (``benchmarks/test_model_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ProtocolConfig

#: Compressed literal cost of a delta byte on text-like content.
DELTA_BITS_PER_BYTE = 3.0
#: Copy-instruction overhead per surviving matched region.
DELTA_BITS_PER_REGION = 40.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost split for one configuration."""

    map_bits: float
    delta_bits: float
    matched_fraction: float

    @property
    def total_bits(self) -> float:
        return self.map_bits + self.delta_bits

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


def estimate_protocol_cost(
    file_length: int,
    dirty_rate: float,
    config: ProtocolConfig | None = None,
    literal_bits_per_byte: float = DELTA_BITS_PER_BYTE,
) -> CostEstimate:
    """Expected map and delta cost under the Bernoulli-edit model.

    ``literal_bits_per_byte`` models the delta coder's entropy pass: ~3
    for text-like content, 8 for incompressible data.
    """
    if file_length < 0:
        raise ValueError("file_length must be non-negative")
    if not 0.0 <= dirty_rate <= 1.0:
        raise ValueError("dirty_rate must be in [0, 1]")
    if config is None:
        config = ProtocolConfig()
    if file_length == 0:
        return CostEstimate(0.0, 0.0, 1.0)

    global_bits = config.resolve_global_hash_bits(file_length)
    verify_bits = float(config.strategy().total_individual_bits or 12)
    start = config.resolve_start_block_size(file_length)

    def match_probability(block: int) -> float:
        return (1.0 - dirty_rate) ** block

    map_bits = 0.0
    matched_bytes = 0.0
    matched_regions = 0.0
    #: blocks still active entering the level
    active = file_length / start
    block = start
    first_level = True
    while block >= config.min_block_size and active >= 1e-9:
        survive = match_probability(block)
        # A block at this level is active because its parent was dirty;
        # it still matches if all ITS bytes are clean (the dirty byte sat
        # in the sibling).  Conditional probability for non-root levels:
        if first_level:
            level_match = survive
        else:
            parent_dirty = 1.0 - match_probability(2 * block)
            level_match = (
                (survive - match_probability(2 * block)) / parent_dirty
                if parent_dirty > 0
                else 0.0
            )
        level_match = min(max(level_match, 0.0), 1.0)

        hashes = active
        if config.use_decomposable and not first_level:
            hashes /= 2.0  # right siblings derived
        map_bits += hashes * global_bits
        map_bits += active  # candidate bitmap
        confirmed = active * level_match
        map_bits += confirmed * verify_bits  # verification for real matches
        matched_bytes += confirmed * block
        matched_regions += confirmed

        active = (active - confirmed) * 2.0
        block //= 2
        first_level = False

    # Continuation hashes extend below the global minimum cheaply: model
    # them as matching the same conditional fraction at ~6 bits per try.
    if config.continuation_enabled:
        assert config.continuation_min_block_size is not None
        while block >= config.continuation_min_block_size and active >= 1e-9:
            survive_fraction = min(
                max(match_probability(block), 0.0), 1.0
            )
            # Only blocks adjacent to a confirmed match participate —
            # roughly the matched-region count, twice (both edges).
            participants = min(active, 2.0 * max(matched_regions, 1.0))
            map_bits += participants * (config.continuation_hash_bits + 2)
            confirmed = participants * survive_fraction * 0.5
            matched_bytes += confirmed * block
            matched_regions += confirmed
            active = (active - confirmed) * 2.0
            block //= 2

    matched_bytes = min(matched_bytes, float(file_length))
    unmatched = file_length - matched_bytes
    delta_bits = (
        unmatched * literal_bits_per_byte
        + matched_regions * DELTA_BITS_PER_REGION
    )
    return CostEstimate(
        map_bits=map_bits,
        delta_bits=delta_bits,
        matched_fraction=matched_bytes / file_length,
    )
