"""The multiround-rsync exchange.

Per round (block size ``b``, halving):

1. client → server: one hash per *active* client block (a fixed-width
   truncated hash; no separate verification pass — the width must carry
   the full confidence, which is exactly the inefficiency the paper's
   optimized verification removes);
2. server: matches each hash against every position of ``F_new`` (numpy
   index) and replies with a bitmap; matched blocks are pinned to their
   server position, unmatched blocks split for the next round.

After the final round the server covers ``F_new`` with pinned client
blocks where possible and compressed literals elsewhere, and the client
reconstructs.  A whole-file checksum detects hash collisions; a
surgical repair round localizes and re-fetches only the divergent
blocks, with the full-transfer fallback reserved for damage repair
cannot cure (:func:`~repro.core.repair.integrity_endgame`, shared with
every protocol, with bit-packed signals here).

The frontier of client blocks is two int64 arrays (``starts``,
``lengths``) cut and split by the block-tree geometry of
:mod:`repro.core.blocks`, so every round is a fixed number of numpy
calls: one batched hash message, one batched lookup per block length,
one bitmap.

Checkpointing: the state both endpoints carry across a round boundary is
tiny and flat — the active block frontier, the pinned matches, and the
round index — so ``multiround_rsync_sync`` can snapshot it after every
completed round (``checkpointer``) and continue from such a snapshot
(``resume_from``) instead of restarting a torn session from round 0.
The snapshot decoder trusts nothing: a payload that is malformed or
impossible for the two files raises
:class:`~repro.exceptions.ProtocolError` before the session is touched.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import partition_blocks, split_blocks
from repro.core.repair import (
    DEFAULT_REPAIR_FANOUT,
    PHASE_FALLBACK,
    IntegrityOutcome,
    integrity_endgame,
)
from repro.core.snapshot import check_disjoint, check_inside
from repro.delta.instructions import Add, Copy, apply_instructions
from repro.exceptions import DeltaFormatError, ProtocolError, SyncStalledError
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import HashIndex, PrefixHasher, pack_to_width
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitReader, BitWriter
from repro.io.varint import (
    StreamToken,
    VarintReader,
    decode_token_stream,
    encode_token_stream,
    encode_uvarint,
)
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats
from repro.parallel.cache import HashIndexCache, default_cache

PHASE_HANDSHAKE = "handshake"
PHASE_MAP = "map"
PHASE_DELTA = "delta"


@dataclass(frozen=True)
class MultiroundConfig:
    """Tunables of the multiround baseline.

    ``max_rounds`` is a *circuit*, not a byte/latency trade like the core
    protocol's graceful cap: a healthy session always converges within
    ``log2(start/min) + 1`` rounds, so exceeding the limit means the
    round state machine is stuck (adversarial corruption, a resume from
    a forged checkpoint, a bug) and the session fails with a typed
    :class:`~repro.exceptions.SyncStalledError` instead of looping.
    ``None`` uses a generous default ceiling well above any legitimate
    round count.
    """

    start_block_size: int = 2048
    min_block_size: int = 64
    hash_bits: int = 30  # must carry all confidence: no verification pass
    hash_seed: int = 1
    max_rounds: int | None = None
    #: Attempt a surgical repair round on fingerprint mismatch before
    #: surrendering to the full-transfer fallback.
    repair: bool = True
    repair_fanout: int = DEFAULT_REPAIR_FANOUT

    def __post_init__(self) -> None:
        if self.min_block_size < 2:
            raise ValueError("min_block_size must be >= 2")
        if self.start_block_size < self.min_block_size:
            raise ValueError("start_block_size must be >= min_block_size")
        if not 8 <= self.hash_bits <= 32:
            raise ValueError("hash_bits must be in [8, 32]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.repair_fanout < 2:
            raise ValueError("repair_fanout must be >= 2")

    @property
    def round_limit(self) -> int:
        """The effective stall ceiling (``max_rounds`` or the default)."""
        if self.max_rounds is not None:
            return self.max_rounds
        return self.start_block_size.bit_length() + 2


@dataclass(kw_only=True)
class MultiroundResult(IntegrityOutcome):
    """Outcome of one multiround-rsync run; the reconstruction and the
    integrity fields are those of
    :class:`~repro.core.repair.IntegrityOutcome`."""

    stats: TransferStats
    rounds: int

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes


@dataclass
class _Pinned:
    """A client block confirmed to occur in the server file."""

    client_start: int
    length: int
    server_start: int


def encode_round_state(
    expected_fingerprint: bytes,
    starts: np.ndarray,
    lengths: np.ndarray,
    pinned: list[_Pinned],
) -> bytes:
    """Serialize the cross-round reconciliation state (varint format).

    The 16-byte fingerprint, then the frontier's ``(start, length)``
    rows and the pins' ``(client_start, length, server_start)`` rows,
    each count-prefixed.
    """
    fields = [starts.size, *np.column_stack((starts, lengths)).ravel().tolist()]
    fields.append(len(pinned))
    for pin in pinned:
        fields += (pin.client_start, pin.length, pin.server_start)
    return expected_fingerprint + b"".join(map(encode_uvarint, fields))


def decode_round_state(
    payload: bytes, old_length: int, new_length: int
) -> tuple[bytes, np.ndarray, np.ndarray, list[_Pinned]]:
    """Inverse of :func:`encode_round_state`, checked against the files.

    Raises :class:`~repro.exceptions.ProtocolError` unless every varint
    terminates, every count fits the bytes left, the frontier rows lie
    in the old file with positive lengths, ascending and disjoint, every
    pin lies inside both files and no bytes trail.
    """
    reader = VarintReader(payload, ProtocolError)
    expected_fingerprint = reader.raw(16)
    frontier = reader.table(2)
    pins = reader.table(3)
    reader.end()
    starts, lengths = frontier.T
    check_inside(starts, lengths, old_length, 1, "frontier block")
    check_disjoint(starts, starts + lengths, "frontier blocks")
    client_starts, pin_lengths, server_starts = pins.T
    check_inside(client_starts, pin_lengths, old_length, 1, "pin")
    check_inside(server_starts, pin_lengths, new_length, 1, "pin")
    pinned = [_Pinned(*row) for row in pins.tolist()]
    return expected_fingerprint, starts, lengths, pinned


class MultiroundSession:
    """Resumable step-wise state machine for one multiround exchange.

    Splits :func:`multiround_rsync_sync` into the schedulable pieces the
    collection executor stacks — without changing a bit on the
    wire: the driver loop below replays the exact send/receive sequence
    of the former run-to-completion function.

    Lifecycle::

        session.start(channel, resume_from=...)   # handshake or restore
        while not session.done:
            session.step_round(channel)           # exactly one round
        result = session.finish(channel)          # delta + integrity

    Every completed round is checkpointed through ``checkpointer`` (when
    given) with the same :func:`encode_round_state` payloads as before,
    so checkpoints stay interchangeable between schedulers.
    """

    def __init__(
        self,
        old_data: bytes,
        new_data: bytes,
        config: MultiroundConfig | None = None,
        checkpointer=None,
    ) -> None:
        self.old_data = old_data
        self.new_data = new_data
        self.config = config or MultiroundConfig()
        self.checkpointer = checkpointer
        self.rounds = 0
        self.pinned: list[_Pinned] = []
        self.expected_fingerprint = b""
        self._started = False
        self._hasher = DecomposableAdler(seed=self.config.hash_seed)
        self._client_prefix = PrefixHasher(old_data, self._hasher)
        self._server_fingerprint = file_fingerprint(new_data)
        self._index_cache: HashIndexCache = default_cache()
        self._server_indexes: dict[int, HashIndex] = {}
        # The active frontier of client blocks.
        self._starts = np.empty(0, dtype=np.int64)
        self._lengths = np.empty(0, dtype=np.int64)

    def _server_index(self, length: int) -> HashIndex:
        """Per-session memo over the shared content-keyed index cache."""
        index = self._server_indexes.get(length)
        if index is None:
            if length > len(self.new_data):
                # No window of this length exists; an empty index, built
                # without scanning the data (and without a cache slot).
                index = HashIndex(b"", length, self._hasher)
            else:
                index = self._index_cache.hash_index(
                    self.new_data,
                    length,
                    self._hasher,
                    fingerprint=self._server_fingerprint,
                )
            self._server_indexes[length] = index
        return index

    # ------------------------------------------------------------------
    def start(self, channel: SimulatedChannel, resume_from=None) -> None:
        """Run the handshake, or restore a checkpointed round boundary."""
        if resume_from is not None:
            (
                self.expected_fingerprint,
                self._starts,
                self._lengths,
                self.pinned,
            ) = decode_round_state(
                resume_from.payload, len(self.old_data), len(self.new_data)
            )
            self.rounds = resume_from.round_index
        else:
            # Handshake: fingerprint for the final integrity check.
            hello = BitWriter()
            hello.write_bytes(self._server_fingerprint)
            channel.send(
                Direction.SERVER_TO_CLIENT, hello.getvalue(), PHASE_HANDSHAKE,
                bits=hello.bit_length,
            )
            self.expected_fingerprint = BitReader(
                channel.receive(Direction.SERVER_TO_CLIENT)
            ).read_bytes(16)
            self._starts, self._lengths = partition_blocks(
                len(self.old_data), self.config.start_block_size
            )
            self.pinned = []
            self.rounds = 0
        self._started = True

    @property
    def active_blocks(self) -> int:
        """Blocks still on the reconciliation frontier."""
        return int(self._starts.size)

    @property
    def done(self) -> bool:
        """True when no rounds remain (ready for :meth:`finish`)."""
        return self._started and self.active_blocks == 0

    def _frontier_state(self) -> bytes:
        return encode_round_state(
            self.expected_fingerprint, self._starts, self._lengths, self.pinned
        )

    # ------------------------------------------------------------------
    def steps(self, channel: SimulatedChannel, resume_from=None):
        """This session as a lane (:mod:`repro.lanes`): yields after the
        handshake and after every round, returns the result.  Its rounds
        run in the lane itself; they are not stacked."""
        self.start(channel, resume_from=resume_from)
        yield
        while not self.done:
            self.step_round(channel)
            yield
        return self.finish(channel)

    # ------------------------------------------------------------------
    def step_round(self, channel: SimulatedChannel) -> None:
        """Execute exactly one hash/bitmap round, checkpoint included."""
        if not self._started:
            raise ValueError("step_round before start()")
        round_limit = self.config.round_limit
        self.rounds += 1
        if self.rounds > round_limit:
            raise SyncStalledError(
                f"multiround session still has {self.active_blocks} active "
                f"blocks after {round_limit} rounds — frontier is not "
                f"converging"
            )
        channel.mark_round(self.rounds)
        self._exchange_round(channel)
        if self.checkpointer is not None:
            self.checkpointer.record_round(
                self.rounds, self._frontier_state(), channel.stats
            )

    def _exchange_round(self, channel: SimulatedChannel) -> None:
        """One round: hashes up, bitmap down, pin or split every block."""
        config = self.config
        starts, lengths = self._starts, self._lengths
        hash_bits = config.hash_bits
        count = int(starts.size)
        packed = pack_to_width(
            self._client_prefix.block_pairs(starts, lengths), hash_bits
        )
        message = BitWriter()
        message.write_many(packed, hash_bits)
        channel.send(
            Direction.CLIENT_TO_SERVER, message.getvalue(), PHASE_MAP,
            bits=message.bit_length,
        )

        reader = BitReader(channel.receive(Direction.CLIENT_TO_SERVER))
        values = reader.read_many(count, hash_bits)
        positions = np.full(count, -1, dtype=np.int64)
        for length in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == length)
            positions[rows] = self._server_index(length).lookup_many(
                values[rows], hash_bits
            )
        matched = positions >= 0
        bitmap = BitWriter()
        bitmap.write_flags(matched)
        channel.send(
            Direction.SERVER_TO_CLIENT, bitmap.getvalue(), PHASE_MAP,
            bits=bitmap.bit_length,
        )

        # Both sides advance identically from the bitmap.
        confirm = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
        flags = confirm.read_flags(count)
        self.pinned.extend(
            _Pinned(client_start, length, server_start)
            for client_start, length, server_start in zip(
                starts[flags].tolist(),
                lengths[flags].tolist(),
                positions[flags].tolist(),
            )
        )
        split = ~flags & (lengths // 2 >= config.min_block_size)
        self._starts, self._lengths = split_blocks(
            starts[split], lengths[split]
        )

    # ------------------------------------------------------------------
    def finish(self, channel: SimulatedChannel) -> MultiroundResult:
        """Delta covering, reconstruction, and the integrity endgame."""
        old_data, new_data, config = self.old_data, self.new_data, self.config

        # --- Delta: cover F_new with pinned client blocks + literals ---
        by_server_position = sorted(
            self.pinned, key=lambda p: (p.server_start, -p.length)
        )
        tokens: list[StreamToken] = []
        cursor = 0
        for pin in by_server_position:
            if pin.server_start < cursor:
                continue  # overlaps something already covered
            if pin.server_start > cursor:
                tokens.append(new_data[cursor : pin.server_start])
            tokens.append((pin.client_start, pin.length))
            cursor = pin.server_start + pin.length
        if cursor < len(new_data):
            tokens.append(new_data[cursor:])
        delta_payload = zlib.compress(encode_token_stream(tokens), 9)
        channel.send(Direction.SERVER_TO_CLIENT, delta_payload, PHASE_DELTA)

        # --- Client reconstruction -------------------------------------
        raw = zlib.decompress(channel.receive(Direction.SERVER_TO_CLIENT))
        try:
            reconstructed = apply_instructions(old_data, [
                Copy.decoded(*token) if isinstance(token, tuple)
                else Add(token)
                for token in decode_token_stream(raw, 2, DeltaFormatError)
            ])
        except DeltaFormatError:
            reconstructed = b""  # force the fallback below

        outcome = integrity_endgame(
            channel,
            reconstructed,
            new_data,
            self.expected_fingerprint,
            repair=config.repair,
            leaf_size=config.min_block_size,
            fanout=config.repair_fanout,
            packed_signals=True,
        )
        if not outcome.collisions_detected:
            channel.send(Direction.CLIENT_TO_SERVER, b"\x00", PHASE_FALLBACK, bits=1)
            channel.receive(Direction.CLIENT_TO_SERVER)
        return MultiroundResult(
            stats=channel.stats, rounds=self.rounds, **vars(outcome)
        )


def multiround_rsync_sync(
    old_data: bytes,
    new_data: bytes,
    config: MultiroundConfig | None = None,
    channel: SimulatedChannel | None = None,
    checkpointer=None,
    resume_from=None,
) -> MultiroundResult:
    """Synchronise ``old_data`` to ``new_data`` with multiround rsync.

    ``checkpointer`` (a
    :class:`~repro.resilience.checkpoint.SessionJournal`, already opened)
    records the reconciliation state after every completed round;
    ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.RoundCheckpoint`) continues from
    such a record, skipping the handshake and every already-paid-for
    round.  A resumed call assumes the caller seeded ``channel.stats``
    with the checkpoint's counters (the supervisor's resume handshake
    does), so the returned stats describe the whole logical session.
    A checkpoint payload that is malformed or impossible for these two
    files raises :class:`~repro.exceptions.ProtocolError`.

    This drives one :meth:`MultiroundSession.steps` lane; the collection
    executor drives the same lanes with the rounds of many files
    stacked.
    """
    from repro.lanes import run_lane

    if channel is None:
        channel = SimulatedChannel()
    session = MultiroundSession(
        old_data, new_data, config, checkpointer=checkpointer
    )
    return run_lane(session.steps(channel, resume_from=resume_from))
