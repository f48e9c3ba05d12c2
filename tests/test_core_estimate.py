"""Tests for the predictive cost model."""

from __future__ import annotations

import random

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.core.estimate import DELTA_BITS_PER_BYTE, estimate_protocol_cost


def cheapest_min_block(
    file_length, dirty_rate, candidates=(16, 32, 64, 128, 256, 512),
    literal_bits_per_byte=DELTA_BITS_PER_BYTE,
):
    """The candidate minimum block size the model predicts cheapest."""
    return min(
        candidates,
        key=lambda min_block: estimate_protocol_cost(
            file_length,
            dirty_rate,
            ProtocolConfig(
                min_block_size=min_block,
                continuation_min_block_size=max(4, min_block // 4),
            ),
            literal_bits_per_byte=literal_bits_per_byte,
        ).total_bits,
    )


class TestEstimateShape:
    def test_zero_length_file(self):
        estimate = estimate_protocol_cost(0, 0.01)
        assert estimate.total_bits == 0.0
        assert estimate.matched_fraction == 1.0

    def test_clean_file_mostly_matched(self):
        estimate = estimate_protocol_cost(100_000, 0.0)
        assert estimate.matched_fraction > 0.99
        assert estimate.delta_bits < estimate.map_bits * 10

    def test_hopeless_file_mostly_delta(self):
        estimate = estimate_protocol_cost(100_000, 0.5)
        assert estimate.matched_fraction < 0.05
        assert estimate.delta_bits > estimate.map_bits

    def test_u_shape_over_min_block(self):
        """The model reproduces the Figure 6.1 U-curve."""
        costs = {}
        for min_block in (16, 64, 256, 512):
            config = ProtocolConfig(
                min_block_size=min_block,
                continuation_min_block_size=max(4, min_block // 4),
            )
            costs[min_block] = estimate_protocol_cost(
                100_000, 0.0005, config
            ).total_bits
        interior = min(costs[64], costs[256])
        assert interior < costs[16] or interior < costs[512]
        assert min(costs.values()) in (costs[64], costs[256])

    def test_dirtier_files_prefer_smaller_blocks(self):
        clean_best = cheapest_min_block(100_000, 0.00005)
        dirty_best = cheapest_min_block(100_000, 0.005)
        assert dirty_best <= clean_best

    def test_map_bits_grow_as_blocks_shrink(self):
        small = estimate_protocol_cost(
            100_000, 0.001, ProtocolConfig(min_block_size=16,
                                           continuation_min_block_size=4)
        )
        large = estimate_protocol_cost(
            100_000, 0.001, ProtocolConfig(min_block_size=256,
                                           continuation_min_block_size=64)
        )
        assert small.map_bits > large.map_bits
        assert small.delta_bits < large.delta_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_protocol_cost(-1, 0.1)
        with pytest.raises(ValueError):
            estimate_protocol_cost(100, 1.5)


class TestModelAgainstMeasurement:
    def make_bernoulli_pair(self, n: int, p: float, seed: int):
        """A pair matching the model's own edit assumptions."""
        rng = random.Random(seed)
        old = bytes(rng.randrange(256) for _ in range(n))
        new = bytearray(old)
        for i in range(n):
            if rng.random() < p:
                new[i] = (new[i] + 1) % 256
        return old, bytes(new)

    def test_predicted_optimum_close_to_measured(self):
        n, p = 60_000, 0.0008
        old, new = self.make_bernoulli_pair(n, p, seed=1)
        measured = {}
        for min_block in (32, 64, 128, 256):
            config = ProtocolConfig(
                min_block_size=min_block,
                continuation_min_block_size=max(4, min_block // 4),
            )
            result = synchronize(old, new, config)
            assert result.reconstructed == new
            measured[min_block] = result.total_bytes
        measured_best = min(measured, key=measured.get)
        # Random bytes are incompressible: literals cost 8 bits each.
        predicted_best = cheapest_min_block(
            n, p, candidates=(32, 64, 128, 256), literal_bits_per_byte=8.0
        )
        # Within one power of two of the truth.
        assert 0.5 <= predicted_best / measured_best <= 2.0

    def test_matched_fraction_prediction_reasonable(self):
        n, p = 40_000, 0.0005
        old, new = self.make_bernoulli_pair(n, p, seed=2)
        result = synchronize(old, new)
        estimate = estimate_protocol_cost(n, p)
        assert abs(estimate.matched_fraction - result.known_fraction) < 0.25
