"""Tests for protocol configuration and auto-resolution rules."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig
from repro.exceptions import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = ProtocolConfig()
        assert config.continuation_enabled

    def test_min_block_too_small(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(min_block_size=1)

    def test_start_below_min_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(start_block_size=32, min_block_size=64)

    def test_continuation_above_min_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(min_block_size=32, continuation_min_block_size=64)

    def test_unknown_strategy_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(verification="bogus")

    def test_hash_bit_bounds(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(global_hash_bits=2)
        with pytest.raises(ConfigError):
            ProtocolConfig(continuation_hash_bits=0)


class TestResolution:
    def test_floor_follows_continuation(self):
        assert ProtocolConfig(continuation_min_block_size=8).floor_block_size == 8
        assert (
            ProtocolConfig(continuation_min_block_size=None).floor_block_size
            == ProtocolConfig().min_block_size
        )

    def test_explicit_start_respected(self):
        config = ProtocolConfig(start_block_size=1024)
        assert config.resolve_start_block_size(10_000_000) == 1024

    def test_auto_start_scales_with_file(self):
        config = ProtocolConfig()
        small = config.resolve_start_block_size(2_000)
        large = config.resolve_start_block_size(500_000)
        assert small < large
        assert large <= 32768

    def test_auto_start_tiny_file(self):
        config = ProtocolConfig(min_block_size=64)
        assert config.resolve_start_block_size(100) == 64

    def test_auto_global_bits_tracks_log_n(self):
        config = ProtocolConfig()
        assert config.resolve_global_hash_bits(1 << 20) == 23
        assert config.resolve_global_hash_bits(1 << 10) == 13
        assert config.resolve_global_hash_bits(0) >= 8

    def test_explicit_global_bits_respected(self):
        config = ProtocolConfig(global_hash_bits=17)
        assert config.resolve_global_hash_bits(12345678) == 17

    def test_strategy_object(self):
        assert ProtocolConfig(verification="group3").strategy().name == "group3"

    def test_with_overrides_revalidates(self):
        config = ProtocolConfig()
        assert config.with_overrides(min_block_size=32).min_block_size == 32
        with pytest.raises(ConfigError):
            config.with_overrides(min_block_size=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            ProtocolConfig().min_block_size = 8  # type: ignore[misc]
