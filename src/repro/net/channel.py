"""A simulated bidirectional channel with exact byte accounting.

Both protocol endpoints live in the same process; the channel's job is to
make every transmitted message pass through a single point where its framed
size is recorded.  Roundtrips are counted as direction reversals, matching
how the paper counts protocol rounds (many files share each roundtrip, so
latency is amortised — the channel's :class:`LinkModel` lets benchmarks
report estimated wall-clock time for a given link anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import ChannelClosedError, ChannelEmptyError
from repro.net.metrics import Direction, TransferStats


class SentMessage(NamedTuple):
    """One outbound message as a channel's ``recorder`` logs it."""

    direction: Direction
    payload: bytes
    phase: str
    bits: int
    round_index: int


@dataclass(frozen=True)
class LinkModel:
    """A latency/bandwidth link description, optionally asymmetric.

    ``bandwidth_bps`` is the download (server→client) payload bandwidth
    in bits per second; ``uplink_bps`` the client→server bandwidth
    (``None`` means symmetric); ``latency_s`` is the one-way propagation
    delay in seconds.  Asymmetric cases — ADSL/cable clients with slow
    uplinks — are one of the paper's §7 extensions: they penalise
    client-chatty protocols like rsync's signature upload.
    """

    bandwidth_bps: float = 1_000_000.0  # ~1 Mbit/s: the paper's "slow link"
    latency_s: float = 0.05
    uplink_bps: float | None = None

    def __post_init__(self) -> None:
        # Fail at construction, not lazily inside transfer_seconds: a link
        # built from bad config should be rejected before any protocol
        # charges wall-clock estimates against it.
        if self.bandwidth_bps <= 0:
            raise ValueError(
                f"bandwidth_bps must be positive, got {self.bandwidth_bps}"
            )
        if self.uplink_bps is not None and self.uplink_bps <= 0:
            raise ValueError(
                f"uplink_bps must be positive, got {self.uplink_bps}"
            )
        if self.latency_s < 0:
            raise ValueError(
                f"latency_s must be non-negative, got {self.latency_s}"
            )

    @property
    def effective_uplink_bps(self) -> float:
        return self.uplink_bps if self.uplink_bps is not None else self.bandwidth_bps

    def transfer_seconds(
        self,
        client_to_server_bytes,
        server_to_client_bytes,
        roundtrips,
    ) -> float:
        """Wall-clock estimate with per-direction bandwidths.

        Each argument may be a scalar or a sequence/array of per-file
        (or per-wave) counters, broadcast against each other; the return
        value is the summed wall-clock estimate.  This is the one link
        formula: channels, the supervisor's waste charges, the pipelined
        replay and the collection reports all use it, so
        ``link_wall_clock_s`` means the same thing wherever it appears.
        A downlink-only estimate is ``transfer_seconds(0, total, trips)``.

        Validation mirrors the constructor's: negative counters are a
        caller bug and are rejected eagerly, not folded into a
        nonsensical estimate.
        """
        import numpy as np

        up_bytes = np.asarray(client_to_server_bytes, dtype=np.float64)
        down_bytes = np.asarray(server_to_client_bytes, dtype=np.float64)
        trips = np.asarray(roundtrips, dtype=np.float64)
        for name, values in (
            ("client_to_server_bytes", up_bytes),
            ("server_to_client_bytes", down_bytes),
            ("roundtrips", trips),
        ):
            if np.any(values < 0):
                raise ValueError(f"{name} must be non-negative, got {values}")
        seconds = (
            8.0 * up_bytes / self.effective_uplink_bps
            + 8.0 * down_bytes / self.bandwidth_bps
            + 2.0 * self.latency_s * trips
        )
        return float(np.sum(seconds))


class SimulatedChannel:
    """Orders messages between client and server and accounts their size.

    Usage::

        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, payload, phase="map")
        payload = channel.receive(Direction.CLIENT_TO_SERVER)
    """

    def __init__(self, link: LinkModel | None = None) -> None:
        self.link = link or LinkModel()
        self.stats = TransferStats()
        self._queues: dict[Direction, list[bytes]] = {
            Direction.CLIENT_TO_SERVER: [],
            Direction.SERVER_TO_CLIENT: [],
        }
        self._last_direction: Direction | None = None
        self._closed = False
        #: Protocol round the traffic currently belongs to (0 = before the
        #: first round); protocols advance it via :meth:`mark_round` so
        #: fault injection can report *where* in the exchange a fault hit.
        self.current_round = 0
        #: When a list, every accepted send is appended to it as a
        #: :class:`SentMessage` — a transcript for parity checks, or the
        #: one a pipelined run replays onto a shared link.  Fault-injected
        #: channels record the payload as sent, before any mangling.
        self.recorder: list[SentMessage] | None = None

    def close(self) -> None:
        """Close the channel; further sends raise ``ChannelClosedError``."""
        self._closed = True

    def mark_round(self, index: int) -> None:
        """Tag subsequent traffic as belonging to protocol round ``index``."""
        if index < 0:
            raise ValueError(f"round index must be non-negative, got {index}")
        self.current_round = index

    @property
    def roundtrips(self) -> int:
        """Direction reversals seen so far (≈ one-way message exchanges)."""
        return self.stats.roundtrips

    def send(
        self,
        direction: Direction,
        payload: bytes,
        phase: str,
        bits: int | None = None,
    ) -> None:
        """Transmit one framed message.

        The framed size is the payload itself — framing overhead is a
        wash across all compared methods, and the paper reports raw
        protocol payloads.  ``bits`` gives the exact payload width for
        bit-packed messages whose final byte is padding; byte boundaries
        are charged once per (direction, phase) bucket, mirroring how the
        paper batches many files into each roundtrip.
        """
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        if bits is None:
            bits = 8 * len(payload)
        elif not 0 <= 8 * len(payload) - bits < 8:
            raise ValueError(
                f"bits={bits} inconsistent with a {len(payload)}-byte payload"
            )
        self.stats.record_bits(direction, phase, bits)
        if self.recorder is not None:
            self.recorder.append(
                SentMessage(direction, payload, phase, bits, self.current_round)
            )
        if direction is not self._last_direction:
            self.stats.roundtrips += 1
            self._last_direction = direction
        self._queues[direction].append(payload)

    def receive(self, direction: Direction) -> bytes:
        """Pop the oldest undelivered message travelling in ``direction``."""
        if self._closed:
            raise ChannelClosedError("receive on a closed channel")
        queue = self._queues[direction]
        if not queue:
            raise ChannelEmptyError(f"no pending message in {direction.value}")
        return queue.pop(0)

    def pending(self, direction: Direction) -> int:
        """Number of undelivered messages in ``direction``."""
        return len(self._queues[direction])

    def estimated_transfer_time(self) -> float:
        """Wall-clock estimate for everything sent so far on this link."""
        return self.link.transfer_seconds(
            self.stats.client_to_server_bytes,
            self.stats.server_to_client_bytes,
            self.stats.roundtrips,
        )
