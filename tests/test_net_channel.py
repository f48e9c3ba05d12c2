"""Tests for the simulated channel."""

from __future__ import annotations

import pytest

from repro.exceptions import ChannelClosedError
from repro.net import Direction, LinkModel, SimulatedChannel


class TestSendReceive:
    def test_fifo_per_direction(self):
        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, b"one", "map")
        channel.send(Direction.CLIENT_TO_SERVER, b"two", "map")
        assert channel.receive(Direction.CLIENT_TO_SERVER) == b"one"
        assert channel.receive(Direction.CLIENT_TO_SERVER) == b"two"

    def test_directions_independent(self):
        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, b"up", "map")
        channel.send(Direction.SERVER_TO_CLIENT, b"down", "map")
        assert channel.receive(Direction.SERVER_TO_CLIENT) == b"down"
        assert channel.receive(Direction.CLIENT_TO_SERVER) == b"up"

    def test_receive_without_message_raises(self):
        with pytest.raises(ChannelClosedError):
            SimulatedChannel().receive(Direction.CLIENT_TO_SERVER)

    def test_pending(self):
        channel = SimulatedChannel()
        assert channel.pending(Direction.CLIENT_TO_SERVER) == 0
        channel.send(Direction.CLIENT_TO_SERVER, b"x", "map")
        assert channel.pending(Direction.CLIENT_TO_SERVER) == 1

    def test_closed_channel_rejects_io(self):
        channel = SimulatedChannel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.send(Direction.CLIENT_TO_SERVER, b"x", "map")
        with pytest.raises(ChannelClosedError):
            channel.receive(Direction.CLIENT_TO_SERVER)


class TestAccounting:
    def test_bytes_recorded_by_phase(self):
        channel = SimulatedChannel()
        channel.send(Direction.SERVER_TO_CLIENT, b"abcd", "map")
        channel.send(Direction.SERVER_TO_CLIENT, b"ab", "delta")
        assert channel.stats.bytes_in_phase("map") == 4
        assert channel.stats.bytes_in_phase("delta") == 2

    def test_roundtrips_count_direction_flips(self):
        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, b"1", "map")
        channel.send(Direction.CLIENT_TO_SERVER, b"2", "map")  # same direction
        channel.send(Direction.SERVER_TO_CLIENT, b"3", "map")
        channel.send(Direction.CLIENT_TO_SERVER, b"4", "map")
        assert channel.roundtrips == 3

    def test_empty_payload_allowed(self):
        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, b"", "map")
        assert channel.receive(Direction.CLIENT_TO_SERVER) == b""


class TestLinkModel:
    def test_transfer_time_components(self):
        link = LinkModel(bandwidth_bps=8000.0, latency_s=0.5)
        # 1000 bytes = 8000 bits = 1 s serialisation; 2 roundtrips = 2 s.
        assert link.transfer_seconds(0, 1000, 2) == pytest.approx(3.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bps=0)

    def test_channel_estimate_uses_link(self):
        channel = SimulatedChannel(LinkModel(bandwidth_bps=8000.0, latency_s=0.0))
        channel.send(Direction.CLIENT_TO_SERVER, b"x" * 1000, "map")
        assert channel.estimated_transfer_time() == pytest.approx(1.0)
