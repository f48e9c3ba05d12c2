"""Tests for the limited-roundtrip mode and asymmetric link modelling."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.exceptions import ConfigError
from repro.net import Direction, LinkModel, SimulatedChannel
from tests.conftest import make_version_pair


class TestMaxRounds:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(max_rounds=0)
        assert ProtocolConfig(max_rounds=1).max_rounds == 1

    def test_round_cap_respected(self):
        old, new = make_version_pair(seed=500, nbytes=40000, edits=15)
        result = synchronize(old, new, ProtocolConfig(max_rounds=2))
        assert result.rounds <= 2
        assert result.reconstructed == new

    def test_single_round_still_correct(self):
        old, new = make_version_pair(seed=501, nbytes=20000)
        result = synchronize(old, new, ProtocolConfig(max_rounds=1))
        assert result.reconstructed == new

    def test_fewer_rounds_fewer_roundtrips_more_bytes(self):
        """The paper's §7 trade-off: capping rounds saves latency but
        costs bandwidth (coarser map, bigger delta)."""
        old, new = make_version_pair(seed=502, nbytes=60000, edits=20)
        capped = synchronize(old, new, ProtocolConfig(max_rounds=2))
        full = synchronize(old, new, ProtocolConfig())
        assert capped.stats.roundtrips < full.stats.roundtrips
        assert capped.total_bytes >= full.total_bytes

    def test_uncapped_equals_none(self):
        old, new = make_version_pair(seed=503, nbytes=10000)
        capped = synchronize(old, new, ProtocolConfig(max_rounds=50))
        free = synchronize(old, new, ProtocolConfig())
        assert capped.total_bytes == free.total_bytes


class TestAsymmetricLinks:
    def test_symmetric_default(self):
        link = LinkModel(bandwidth_bps=8000.0)
        assert link.effective_uplink_bps == 8000.0

    def test_directional_time(self):
        link = LinkModel(bandwidth_bps=8000.0, uplink_bps=800.0, latency_s=0.0)
        # 100 B up at 800 bps = 1 s; 1000 B down at 8000 bps = 1 s.
        assert link.transfer_seconds(100, 1000, 0) == pytest.approx(2.0)

    def test_bad_uplink_rejected(self):
        # Validation moved to construction time: a zero uplink never
        # produces a usable LinkModel in the first place.
        with pytest.raises(ValueError):
            LinkModel(uplink_bps=0.0)

    def test_channel_estimate_uses_uplink(self):
        link = LinkModel(bandwidth_bps=1e9, uplink_bps=800.0, latency_s=0.0)
        channel = SimulatedChannel(link)
        channel.send(Direction.CLIENT_TO_SERVER, b"x" * 100, "map")
        assert channel.estimated_transfer_time() == pytest.approx(1.0)

    def test_slow_uplink_penalises_rsync_more_than_ours(self):
        """rsync uploads a signature per block; our protocol's uplink
        traffic is bitmaps and tiny verification hashes — on an ADSL-like
        link the gap widens (the paper's asymmetric-case motivation)."""
        from repro.rsync import rsync_sync

        old, new = make_version_pair(seed=504, nbytes=60000, edits=10)
        link = LinkModel(bandwidth_bps=8_000_000, uplink_bps=256_000,
                         latency_s=0.0)
        ours_channel = SimulatedChannel(link)
        synchronize(old, new, ProtocolConfig(), ours_channel)
        rsync_channel = SimulatedChannel(link)
        rsync_sync(old, new, channel=rsync_channel)
        ours_up = ours_channel.stats.client_to_server_bytes
        rsync_up = rsync_channel.stats.client_to_server_bytes
        assert ours_up < rsync_up
