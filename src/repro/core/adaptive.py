"""Adaptive parameter selection (the paper's §7 "ideal tool").

"Ideally, such a tool would be adaptive and thus choose the best set of
parameters and number of roundtrips based on the characteristics of the
data set and communication link."  This module implements that tool:

1. a cheap *similarity probe* — the server sends a handful of block
   hashes; the client reports how many match anywhere in its file — whose
   cost is fully accounted on the same channel;
2. a rule that maps (probe result, file sizes, link latency class) to a
   :class:`~repro.core.config.ProtocolConfig`:

   * dissimilar files: recursing is wasted effort — keep blocks large,
     few rounds, then let the delta (mostly literals) do the work;
   * similar files: recurse deep with continuation hashes to shave the
     delta as far as possible;
   * high-latency links: cap rounds and use single-batch verification,
     trading some bytes for roundtrips.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.protocol import SyncResult, synchronize
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import HashIndex
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import LinkModel, SimulatedChannel
from repro.net.metrics import Direction

PHASE_PROBE = "probe"

#: Probe parameters (fixed protocol constants known to both endpoints).
PROBE_BLOCK_SIZE = 256
PROBE_SAMPLES = 24


def probe_hash_bits(client_length: int) -> int:
    """Probe hash width: enough bits that a random collision against all
    ``client_length`` window positions stays below ~2%.

    The client's length travels in the probe request (a varint the
    accounting includes), so both endpoints compute the same width.
    """
    import math

    bits = int(math.ceil(math.log2(max(client_length, 2)))) + 6
    return max(16, min(bits, 30))

#: A link slower than this round-trip budget is treated as high latency.
HIGH_LATENCY_THRESHOLD_S = 0.2


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the similarity probe."""

    samples: int
    matched: int

    @property
    def similarity(self) -> float:
        """Fraction of probed server blocks found verbatim at the client."""
        if self.samples == 0:
            return 0.0
        return self.matched / self.samples


def probe_similarity(
    client_data: bytes,
    server_data: bytes,
    channel: SimulatedChannel,
    hash_seed: int = 1,
) -> ProbeResult:
    """Run the accounted similarity probe over ``channel``.

    The server samples block positions with a deterministic generator
    seeded by the (already exchanged) file length, so the client knows
    which positions were probed without extra bytes.
    """
    usable = len(server_data) - PROBE_BLOCK_SIZE
    if usable < 0:
        return ProbeResult(samples=0, matched=0)
    hasher = DecomposableAdler(seed=hash_seed)
    rng = random.Random(len(server_data))
    positions = [rng.randrange(usable + 1) for _ in range(PROBE_SAMPLES)]

    # The client announces its length so both sides fix the hash width.
    request = BitWriter()
    request.write_uvarint(len(client_data))
    channel.send(
        Direction.CLIENT_TO_SERVER, request.getvalue(), PHASE_PROBE,
        bits=request.bit_length,
    )
    announced = BitReader(
        channel.receive(Direction.CLIENT_TO_SERVER)
    ).read_uvarint()
    width = probe_hash_bits(announced)

    writer = BitWriter()
    for position in positions:
        block = server_data[position : position + PROBE_BLOCK_SIZE]
        writer.write(hasher.packed_hash(block, width), width)
    channel.send(
        Direction.SERVER_TO_CLIENT, writer.getvalue(), PHASE_PROBE,
        bits=writer.bit_length,
    )

    reader = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
    index = HashIndex(client_data, PROBE_BLOCK_SIZE, hasher)
    matched = 0
    for _ in positions:
        value = reader.read(width)
        if index.lookup(value, width, max_results=1):
            matched += 1

    reply = BitWriter()
    reply.write_uvarint(matched)
    channel.send(
        Direction.CLIENT_TO_SERVER, reply.getvalue(), PHASE_PROBE,
        bits=reply.bit_length,
    )
    reported = BitReader(channel.receive(Direction.CLIENT_TO_SERVER)).read_uvarint()
    return ProbeResult(samples=len(positions), matched=reported)


def choose_config(
    probe: ProbeResult,
    link: LinkModel | None = None,
    hash_seed: int = 1,
) -> ProtocolConfig:
    """Map a probe outcome and link class to protocol parameters."""
    high_latency = bool(link and link.latency_s >= HIGH_LATENCY_THRESHOLD_S)
    similarity = probe.similarity

    if similarity < 0.15:
        # Nearly disjoint: a shallow map pass, then let the delta carry it.
        config = ProtocolConfig(
            min_block_size=256,
            continuation_min_block_size=None,
            verification="light",
            max_rounds=4,
            hash_seed=hash_seed,
        )
    elif similarity < 0.6:
        config = ProtocolConfig(
            min_block_size=64,
            continuation_min_block_size=16,
            verification="group2",
            hash_seed=hash_seed,
        )
    else:
        # Highly similar: recurse deep; every matched byte is a byte the
        # delta does not have to carry.
        config = ProtocolConfig(
            min_block_size=32,
            continuation_min_block_size=8,
            verification="group2",
            hash_seed=hash_seed,
        )
    if high_latency:
        config = config.with_overrides(
            verification="light",
            max_rounds=min(config.max_rounds or 6, 6),
        )
    return config


def adaptive_synchronize(
    client_data: bytes,
    server_data: bytes,
    link: LinkModel | None = None,
    channel: SimulatedChannel | None = None,
) -> tuple[SyncResult, ProtocolConfig]:
    """Probe, pick parameters, then synchronise — all on one channel.

    Returns the sync result (whose stats include the probe cost) and the
    chosen configuration.
    """
    if channel is None:
        channel = SimulatedChannel(link)
    probe = probe_similarity(client_data, server_data, channel)
    config = choose_config(probe, link=link or channel.link)
    result = synchronize(client_data, server_data, config, channel)
    return result, config
