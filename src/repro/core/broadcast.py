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

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import partition_blocks, split_blocks
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.protocol import LaneChannels
from repro.core.server import ServerSession
from repro.hashing.scan import decompose_right_widths, pack_to_width
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats

#: The shared stream's phase — counted once regardless of client count.
PHASE_BROADCAST = "map-broadcast"
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
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The full (unpruned) block tree: ``(starts, lengths)`` per level.

    Client-independent by construction: every block splits down to the
    global minimum regardless of who matched what.  Below level 0 each
    level is made of sibling pairs, the children of the blocks of the
    level above that split (:func:`_splits`).
    """
    starts, lengths = partition_blocks(
        server_length, config.resolve_start_block_size(server_length)
    )
    levels = []
    while starts.size:
        levels.append((starts, lengths))
        split = _splits(lengths, config)
        starts, lengths = split_blocks(starts[split], lengths[split])
    return levels


def _splits(lengths: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    """Rows of a level whose children make up the next level."""
    return lengths // 2 >= config.min_block_size


def _derives_right(depth: int, config: ProtocolConfig) -> bool:
    """Whether a level's right children stay out of the shared stream.

    Below the top level the right sibling is derivable for every client
    (the parent hash is always in the stream), so with decomposable
    hashes only the left children (the even rows) are sent.
    """
    return depth > 0 and config.use_decomposable


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
    server_prefix = ServerSession(server_data, config).prefix

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

    for depth, (starts, lengths) in enumerate(levels):
        step = 2 if _derives_right(depth, config) else 1
        stream = BitWriter()
        stream.write_many(
            pack_to_width(
                server_prefix.block_pairs(starts[::step], lengths[::step]),
                global_bits,
            ),
            global_bits,
        )
        shared_channel.send(
            Direction.SERVER_TO_CLIENT, stream.getvalue(), PHASE_BROADCAST,
            bits=stream.bit_length,
        )
        level_payloads.append(shared_channel.receive(Direction.SERVER_TO_CLIENT))
    report.shared_stats = shared_channel.stats

    # --- Per-client: parse, verify, delta --------------------------------
    for name, client_data in sorted(client_files.items()):
        channel = SimulatedChannel()
        # The private verification exchange, as a stack of one lane.
        link = LaneChannels(config, [channel])
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

        # Per row of the current level: its hash value and whether an
        # accepted ancestor already covers it (in a binary split tree a
        # block lies inside another only if that one is its ancestor).
        values = covered = None
        for depth, ((starts, lengths), payload) in enumerate(
            zip(levels, level_payloads[1:])
        ):
            derive = _derives_right(depth, config)
            step = 2 if derive else 1
            level_values = np.empty(starts.size, dtype=np.uint64)
            level_values[::step] = BitReader(payload).read_many(
                starts.size // step, global_bits
            )
            if derive:
                level_values[1::2] = decompose_right_widths(
                    values, global_bits, level_values[0::2],
                    global_bits, lengths[1::2],
                )
            values = level_values
            covered = (
                np.repeat(covered, 2) if depth
                else np.zeros(starts.size, dtype=bool)
            )

            # Each open row's candidate: the first client position with
            # its hash (``lookup(...)[0]``), one batch per block length.
            positions = np.full(starts.size, -1, dtype=np.int64)
            open_rows = np.flatnonzero(~covered)
            for length in np.unique(lengths[open_rows]).tolist():
                rows = open_rows[lengths[open_rows] == length]
                positions[rows] = client._index(length).lookup_many(
                    values[rows], global_bits
                )
            found = np.flatnonzero(positions >= 0)
            accepted, confirmed, _bits = link.verify(
                [0], [client], [server], np.zeros(starts.size, dtype=np.int64),
                (positions, lengths), (starts, lengths), found, found,
            )
            if link.errors[0] is not None:
                raise link.errors[0]
            client.record_accepted(
                starts[accepted], lengths[accepted], positions[accepted]
            )
            server.tracker.confirmed_regions.extend(
                zip(starts[confirmed].tolist(), lengths[confirmed].tolist())
            )
            covered[accepted] = True
            split = _splits(lengths, config)
            values, covered = values[split], covered[split]

        delta = server.emit_delta()
        channel.send(Direction.SERVER_TO_CLIENT, delta, PHASE_DELTA)
        reconstructed = client.apply_delta(
            channel.receive(Direction.SERVER_TO_CLIENT)
        )
        if reconstructed is None:
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

