"""Tests for the verification strategy descriptions."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigError
from repro.grouptesting import (
    BatchMode,
    BatchScope,
    BatchSpec,
    VerificationStrategy,
    make_strategy,
    strategy_names,
)


class TestBatchSpec:
    def test_individual_defaults(self):
        batch = BatchSpec(BatchMode.INDIVIDUAL, bits=12)
        assert batch.group_size == 1
        assert batch.scope is BatchScope.ALL

    def test_group_needs_size(self):
        with pytest.raises(ConfigError):
            BatchSpec(BatchMode.GROUP, bits=16, group_size=1)

    def test_individual_rejects_group_size(self):
        with pytest.raises(ConfigError):
            BatchSpec(BatchMode.INDIVIDUAL, bits=16, group_size=4)

    def test_bits_bounds(self):
        with pytest.raises(ConfigError):
            BatchSpec(BatchMode.INDIVIDUAL, bits=0)
        with pytest.raises(ConfigError):
            BatchSpec(BatchMode.INDIVIDUAL, bits=65)


class TestVerificationStrategy:
    def test_first_batch_must_cover_all(self):
        with pytest.raises(ConfigError):
            VerificationStrategy(
                "bad",
                (BatchSpec(BatchMode.INDIVIDUAL, bits=8, scope=BatchScope.SURVIVORS),),
            )

    def test_later_batch_cannot_cover_all(self):
        with pytest.raises(ConfigError):
            VerificationStrategy(
                "bad",
                (
                    BatchSpec(BatchMode.INDIVIDUAL, bits=8),
                    BatchSpec(BatchMode.INDIVIDUAL, bits=8),
                ),
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            VerificationStrategy("bad", ())

    def test_roundtrips(self):
        assert make_strategy("trivial").roundtrips == 1
        assert make_strategy("group2").roundtrips == 2
        assert make_strategy("group3").roundtrips == 3


class TestRegistry:
    def test_all_names_resolve(self):
        for name in strategy_names():
            strategy = make_strategy(name)
            assert strategy.name == name

    def test_figure_6_4_lineup_present(self):
        assert {"trivial", "light", "group1", "group2", "group3"} <= set(
            strategy_names()
        )

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_strategy("nonsense")

    def test_trivial_is_16_bit_individual(self):
        (batch,) = make_strategy("trivial").batches
        assert batch.mode is BatchMode.INDIVIDUAL
        assert batch.bits == 16

    def test_group3_ends_with_salvage(self):
        strategy = make_strategy("group3")
        assert strategy.batches[-1].scope is BatchScope.FAILED_GROUP_MEMBERS

    def test_lighter_strategies_send_fewer_individual_bits(self):
        assert (
            make_strategy("group3").total_individual_bits
            < make_strategy("group2").total_individual_bits
            < make_strategy("light").total_individual_bits
            < make_strategy("trivial").total_individual_bits
        )
