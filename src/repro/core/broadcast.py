"""Broadcast synchronization: one hash stream, many clients (§7).

The paper closes with "we plan to look at synchronization in asymmetric
cases, e.g., in cases with server broadcast capability".  When a server
updates many clients that hold *different* stale copies, the map phase
can be restructured so the expensive server→client hash stream is
**client-independent** — computable once, multicast (or CDN-cached) to
every client:

* the server walks the *full* block tree (every block of every level
  down to the minimum — no pruning by any client's confirmations, since
  different clients confirm different blocks) and emits one hash per
  sibling pair (decomposability still applies);
* each client parses the same stream positionally, finds its own
  candidates, and verifies them over its private (unicast) back-channel;
* each client's delta is unicast, encoded against that client's own
  confirmed regions.

The trade: the shared stream is larger than any single client's pruned
stream (no skip rules, no continuation hashes), but it is paid **once**
instead of per client — the bench shows the break-even around 2–3
clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import Block
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.server import ServerSession
from repro.core.verification import VerificationPools, make_units
from repro.exceptions import ProtocolError
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats

#: The shared stream's phase — counted once regardless of client count.
PHASE_BROADCAST = "map-broadcast"
PHASE_UNICAST = "map"
PHASE_DELTA = "delta"
PHASE_HANDSHAKE = "handshake"


@dataclass
class BroadcastReport:
    """Outcome of one broadcast update."""

    reconstructed: dict[str, bytes] = field(default_factory=dict)
    shared_stats: TransferStats = field(default_factory=TransferStats)
    per_client_stats: dict[str, TransferStats] = field(default_factory=dict)

    @property
    def shared_bytes(self) -> int:
        return self.shared_stats.total_bytes

    def unicast_bytes(self, name: str) -> int:
        return self.per_client_stats[name].total_bytes

    def total_bytes(self) -> int:
        """Broadcast stream once + every client's private traffic."""
        return self.shared_bytes + sum(
            stats.total_bytes for stats in self.per_client_stats.values()
        )


def _broadcast_levels(
    server_length: int, config: ProtocolConfig
) -> list[list[Block]]:
    """The full (unpruned) block tree, level by level.

    Client-independent by construction: every block splits down to the
    global minimum regardless of who matched what.
    """
    start = config.resolve_start_block_size(server_length)
    level: list[Block] = []
    offset = 0
    while offset < server_length:
        length = min(start, server_length - offset)
        level.append(Block(start=offset, length=length, level=0))
        offset += length
    levels = []
    while level:
        levels.append(level)
        next_level: list[Block] = []
        for block in level:
            if block.length // 2 >= config.min_block_size:
                next_level.extend(block.split())
        level = next_level
    return levels


def synchronize_broadcast(
    client_files: dict[str, bytes],
    server_data: bytes,
    config: ProtocolConfig | None = None,
) -> BroadcastReport:
    """Update every client to ``server_data`` with one shared hash stream.

    Returns per-client reconstructions plus the shared/unicast cost
    split.  Continuation hashes and skip rules are inherently
    per-client, so the broadcast stream uses global hashes only; the
    private verification and delta traffic runs per client exactly as in
    the unicast protocol.
    """
    if config is None:
        config = ProtocolConfig()
    report = BroadcastReport()
    if not client_files:
        return report

    # Broadcast hash widths must fit every client; size for the largest.
    widest_client = max(len(data) for data in client_files.values())
    global_bits = config.resolve_global_hash_bits(max(widest_client, 2))

    levels = _broadcast_levels(len(server_data), config)
    server_template = ServerSession(server_data, config)
    hasher = DecomposableAdler(seed=config.hash_seed)

    # --- The shared stream: fingerprint + every level's hashes ----------
    shared_channel = SimulatedChannel()
    hello = BitWriter()
    hello.write_bytes(file_fingerprint(server_data))
    hello.write_uvarint(len(server_data))
    shared_channel.send(
        Direction.SERVER_TO_CLIENT, hello.getvalue(), PHASE_HANDSHAKE,
        bits=hello.bit_length,
    )
    level_payloads: list[bytes] = [shared_channel.receive(Direction.SERVER_TO_CLIENT)]

    for depth, level in enumerate(levels):
        stream = BitWriter()
        for block in level:
            # Decomposable suppression: below the top level the right
            # sibling is derivable for every client (the parent hash is
            # always in the stream).
            if depth > 0 and not block.is_left and config.use_decomposable:
                continue
            packed = DecomposableAdler.pack(
                server_template.prefix.block_pair(block.start, block.length),
                global_bits,
            )
            stream.write(packed, global_bits)
        shared_channel.send(
            Direction.SERVER_TO_CLIENT, stream.getvalue(), PHASE_BROADCAST,
            bits=stream.bit_length,
        )
        level_payloads.append(shared_channel.receive(Direction.SERVER_TO_CLIENT))
    report.shared_stats = shared_channel.stats

    # --- Per-client: parse, verify, delta --------------------------------
    for name, client_data in sorted(client_files.items()):
        channel = SimulatedChannel()
        client = ClientSession(client_data, config)
        server = ServerSession(server_data, config)

        hello_reader = BitReader(level_payloads[0])
        unchanged = client.process_handshake(
            hello_reader.read_bytes(16), hello_reader.read_uvarint()
        )
        if unchanged:
            report.reconstructed[name] = client_data
            report.per_client_stats[name] = channel.stats
            continue

        client_levels = _broadcast_levels(len(server_data), config)
        server_levels = _broadcast_levels(len(server_data), config)
        matched_regions: list[tuple[int, int]] = []
        #: Parsed/derived hash values, persistent across levels so right
        #: children can be decomposed from their parent's value.
        values: dict[int, int] = {}

        for depth, (payload, client_level, server_level) in enumerate(
            zip(level_payloads[1:], client_levels, server_levels)
        ):
            reader = BitReader(payload)
            candidates: list[tuple[Block, int]] = []
            server_blocks: list[Block] = []
            for c_block, s_block in zip(client_level, server_level):
                if depth > 0 and not c_block.is_left and config.use_decomposable:
                    parent = c_block.parent
                    sibling = c_block.sibling
                    assert parent is not None and sibling is not None
                    value = DecomposableAdler.decompose_right_packed(
                        values[id(parent)],
                        values[id(sibling)],
                        global_bits,
                        c_block.length,
                    )
                else:
                    value = reader.read(global_bits)
                values[id(c_block)] = value
                # Skip blocks inside an already-matched ancestor region.
                if any(
                    start <= c_block.start and c_block.end <= start + length
                    for start, length in matched_regions
                ):
                    continue
                positions = client._index(c_block.length).lookup(
                    value, global_bits,
                    max_results=config.max_candidate_positions,
                )
                if positions:
                    candidates.append((c_block, positions[0]))
                    server_blocks.append(s_block)
            # Private verification for this level's candidates.
            accepted_c, accepted_s = _verify_unicast(
                channel, client, server, config, candidates, server_blocks
            )
            accepted = np.asarray(
                [(block.start, block.length, position)
                 for block, position in accepted_c],
                dtype=np.int64,
            ).reshape(-1, 3)
            client.record_accepted(accepted[:, 0], accepted[:, 1], accepted[:, 2])
            for (c_block, _position), s_block in zip(accepted_c, accepted_s):
                matched_regions.append((c_block.start, c_block.length))
                server.tracker.confirmed_regions.append(
                    (s_block.start, s_block.length)
                )

        delta = server.emit_delta()
        channel.send(Direction.SERVER_TO_CLIENT, delta, PHASE_DELTA)
        reconstructed = client.apply_delta(
            channel.receive(Direction.SERVER_TO_CLIENT)
        )
        if reconstructed is None:
            import zlib

            channel.send(
                Direction.SERVER_TO_CLIENT,
                zlib.compress(server_data, 9),
                "fallback",
            )
            reconstructed = zlib.decompress(
                channel.receive(Direction.SERVER_TO_CLIENT)
            )
        report.reconstructed[name] = reconstructed
        report.per_client_stats[name] = channel.stats
    return report


def _verify_unicast(
    channel: SimulatedChannel,
    client: ClientSession,
    server: ServerSession,
    config: ProtocolConfig,
    candidates: list[tuple[Block, int]],
    server_blocks: list[Block],
) -> tuple[list[tuple[Block, int]], list[Block]]:
    """Private verification, mirroring the unicast protocol's exchange.

    Accepted candidate/block pairs keep their alignment so callers can
    zip them.
    """
    if len(candidates) != len(server_blocks):
        raise ProtocolError("broadcast candidate lists diverged")
    strategy = config.strategy()
    # Keep (candidate, block) pairs together through the pools.
    paired = list(zip(candidates, server_blocks))
    client_pools: VerificationPools = VerificationPools(main=list(paired))
    for batch in strategy.batches:
        selection = client_pools.select(batch)
        if not selection:
            continue
        units = make_units(selection, batch)
        values = client.verification_values(
            [
                [(position, block.length) for (block, position), _ in unit]
                for unit in units
            ],
            batch,
        )
        expected = server.verification_values(
            [[(block.start, block.length) for _, block in unit] for unit in units],
            batch,
        )
        writer = BitWriter()
        writer.write_many(values, batch.bits)
        passed = [value == want for value, want in zip(values, expected)]
        channel.send(
            Direction.CLIENT_TO_SERVER, writer.getvalue(), PHASE_UNICAST,
            bits=writer.bit_length,
        )
        bitmap = BitWriter()
        for ok in passed:
            bitmap.write_bit(ok)
        channel.send(
            Direction.SERVER_TO_CLIENT, bitmap.getvalue(), PHASE_UNICAST,
            bits=bitmap.bit_length,
        )
        channel.receive(Direction.CLIENT_TO_SERVER)
        channel.receive(Direction.SERVER_TO_CLIENT)
        client_pools.apply(batch, units, passed)
    accepted = client_pools.finish()
    return [pair[0] for pair in accepted], [pair[1] for pair in accepted]
