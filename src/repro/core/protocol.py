"""Orchestration of one file synchronization over the simulated channel.

:func:`synchronize` drives both endpoints through the full exchange:

1. handshake (client file length →; server fingerprint + file length ←);
2. rounds of map construction — per block size, an optional continuation
   sub-phase followed by a global sub-phase, each consisting of a hash
   message, a candidate bitmap, and the verification batches of the
   configured group-testing strategy;
3. the final delta, checked against the whole-file fingerprint, with a
   compressed full transfer as the (accounted) fallback.

Both sessions evolve mirrored block trees; any divergence is a bug and
raises :class:`~repro.exceptions.ProtocolError` immediately.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import CONTINUATION, KIND_OF_CODE
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.planning import (
    HashPlan,
    apply_known_hashes,
    plan_continuation,
    plan_global,
    plan_mixed,
)
from repro.core.server import ServerSession
from repro.core.trace import SubphaseTrace
from repro.core.verification import VerificationPools, make_units
from repro.exceptions import ProtocolError, SyncStalledError
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats

PHASE_HANDSHAKE = "handshake"
PHASE_MAP = "map"
PHASE_DELTA = "delta"
PHASE_FALLBACK = "fallback"

#: Hard stall circuit for map construction.  A healthy session's round
#: count is bounded by the block-split depth (~log2 of the file size, so
#: < 64 even for exabyte files); hitting this ceiling means the frontier
#: stopped converging (adversarial corruption, a forged resume, a bug)
#: and the session dies with a typed error instead of looping.  Distinct
#: from ``config.max_rounds``, which is a *graceful* byte/latency cap.
_STALL_ROUND_LIMIT = 96


@dataclass
class SyncResult:
    """Outcome of one synchronization run."""

    reconstructed: bytes
    stats: TransferStats
    unchanged: bool
    used_fallback: bool
    matched_blocks: int
    known_fraction: float
    rounds: int
    #: Continuation-hash bookkeeping: how many continuation hashes found
    #: a candidate, and how many of those were confirmed.  Their ratio is
    #: the paper's "harvest rate" (high for continuation hashes, which is
    #: why they remain profitable at tiny block sizes).
    continuation_candidates: int = 0
    continuation_accepted: int = 0
    #: Per-sub-phase instrumentation; populated when the config sets
    #: ``collect_trace=True``.
    trace: "list[SubphaseTrace]" = field(default_factory=list)

    @property
    def continuation_harvest_rate(self) -> float:
        """Confirmed fraction of continuation candidates (1.0 if none)."""
        if self.continuation_candidates == 0:
            return 1.0
        return self.continuation_accepted / self.continuation_candidates

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes

    @property
    def map_bytes(self) -> int:
        return self.stats.bytes_in_phase(PHASE_MAP)

    @property
    def delta_bytes(self) -> int:
        return self.stats.bytes_in_phase(PHASE_DELTA)


def _check_plans_match(server_plan: HashPlan, client_plan: HashPlan) -> None:
    """Defensive mirror check (free in-process; a real deployment relies
    on determinism alone)."""
    if server_plan.size != client_plan.size:
        raise ProtocolError(
            f"endpoint plans diverged: {server_plan.size} vs {client_plan.size}"
        )
    if [field.tobytes() for field in server_plan] != [
        field.tobytes() for field in client_plan
    ]:
        raise ProtocolError("endpoint plans diverged")


#: One verification candidate: (plan index, offset, length).
_Item = tuple[int, int, int]


def _items(flags: np.ndarray, offsets: np.ndarray, lengths: np.ndarray):
    """The flagged plan rows as verification items, in plan order."""
    at = flags.nonzero()[0]
    return list(zip(at.tolist(), offsets[at].tolist(), lengths[at].tolist()))


def _regions(units: list[list[_Item]]) -> list[list[tuple[int, int]]]:
    return [[(offset, length) for _at, offset, length in unit] for unit in units]


def _run_verification(
    channel: SimulatedChannel,
    client: ClientSession,
    server: ServerSession,
    client_items: list[_Item],
    server_items: list[_Item],
) -> tuple[list[int], list[int], int]:
    """Execute the configured verification strategy for one sub-phase.

    Each endpoint verifies its own ``(offset, length)`` regions: the
    client its candidate positions, the server the blocks themselves.
    Returns the accepted plan indices of each endpoint plus the
    client->server verification bits spent.
    """
    strategy = client.config.strategy()
    client_pools: VerificationPools[_Item] = VerificationPools(main=client_items)
    server_pools: VerificationPools[_Item] = VerificationPools(main=server_items)
    verification_bits = 0
    for batch in strategy.batches:
        client_selection = client_pools.select(batch)
        server_selection = server_pools.select(batch)
        if len(client_selection) != len(server_selection):
            raise ProtocolError("verification pools diverged")
        if not client_selection:
            continue
        client_units = make_units(client_selection, batch)
        server_units = make_units(server_selection, batch)

        writer = BitWriter()
        writer.write_many(
            np.asarray(
                client.verification_values(_regions(client_units), batch),
                dtype=np.uint64,
            ),
            batch.bits,
        )
        verification_bits += writer.bit_length
        channel.send(
            Direction.CLIENT_TO_SERVER,
            writer.getvalue(),
            PHASE_MAP,
            bits=writer.bit_length,
        )

        received = BitReader(
            channel.receive(Direction.CLIENT_TO_SERVER)
        ).read_many(len(server_units), batch.bits)
        expected = server.verification_values(_regions(server_units), batch)
        passed = received == np.asarray(expected, dtype=np.uint64)

        bitmap = BitWriter()
        bitmap.write_flags(passed)
        channel.send(
            Direction.SERVER_TO_CLIENT,
            bitmap.getvalue(),
            PHASE_MAP,
            bits=bitmap.bit_length,
        )
        client_passed = BitReader(
            channel.receive(Direction.SERVER_TO_CLIENT)
        ).read_flags(len(client_units))

        client_pools.apply(batch, client_units, client_passed.tolist())
        server_pools.apply(batch, server_units, passed.tolist())
    return (
        [at for at, _offset, _length in client_pools.finish()],
        [at for at, _offset, _length in server_pools.finish()],
        verification_bits,
    )


def _run_subphase(
    channel: SimulatedChannel,
    client: ClientSession,
    server: ServerSession,
    server_plan: HashPlan,
    client_plan: HashPlan,
    round_index: int = 0,
) -> tuple[int, int, "SubphaseTrace | None"]:
    """One hash message + candidate bitmap + verification exchange.

    Returns ``(continuation_candidates, continuation_accepted, trace)``.
    """
    _check_plans_match(server_plan, client_plan)
    if not server_plan.size:
        return (0, 0, None)

    payload = server.emit_hashes(server_plan)
    payload_bits = server_plan.transmitted_bits
    channel.send(
        Direction.SERVER_TO_CLIENT, payload, PHASE_MAP, bits=payload_bits
    )
    positions = client.process_hashes(
        client_plan, channel.receive(Direction.SERVER_TO_CLIENT)
    )
    found = positions >= 0

    bitmap = BitWriter()
    bitmap.write_flags(found)
    channel.send(
        Direction.CLIENT_TO_SERVER,
        bitmap.getvalue(),
        PHASE_MAP,
        bits=bitmap.bit_length,
    )
    server_flags = BitReader(
        channel.receive(Direction.CLIENT_TO_SERVER)
    ).read_flags(server_plan.size)

    accepted_client, accepted_server, verification_bits = _run_verification(
        channel,
        client,
        server,
        _items(found, positions, client_plan.lengths),
        _items(server_flags, server_plan.starts, server_plan.lengths),
    )
    client_rows = np.asarray(accepted_client, dtype=np.int64)
    server_rows = np.asarray(accepted_server, dtype=np.int64)
    client_tracker = client._require_tracker()
    client_tracker.record_matches(client_plan.rows[client_rows])
    client.record_accepted(
        client_plan.starts[client_rows],
        client_plan.lengths[client_rows],
        positions[client_rows],
    )
    server.tracker.record_matches(server_plan.rows[server_rows])

    # Both endpoints now mark failed continuation attempts identically.
    continuation = client_plan.kinds == CONTINUATION
    continuation_candidates = continuation_accepted = 0
    if np.count_nonzero(continuation):
        for tracker, plan, rows in (
            (server.tracker, server_plan, server_rows),
            (client_tracker, client_plan, client_rows),
        ):
            failed = plan.kinds == CONTINUATION
            failed[rows] = False
            tracker.continuation_failed[plan.rows[failed]] = True
        continuation_candidates = np.count_nonzero(continuation & found)
        continuation_accepted = np.count_nonzero(continuation[client_rows])

    apply_known_hashes(server.tracker, server_plan)
    apply_known_hashes(client_tracker, client_plan)

    trace = None
    if client.config.collect_trace:
        counts = np.bincount(server_plan.kinds, minlength=len(KIND_OF_CODE))
        trace = SubphaseTrace(
            round_index=round_index,
            block_length=int(server_plan.lengths.max()),
            hash_counts={
                kind: int(count)
                for kind, count in zip(KIND_OF_CODE, counts.tolist())
                if count
            },
            hash_bits_sent=payload_bits,
            candidates=np.count_nonzero(found),
            accepted=len(accepted_client),
            verification_bits=verification_bits,
        )
    return (continuation_candidates, continuation_accepted, trace)


class CoreSyncSession:
    """Resumable step-wise state machine for one core-protocol exchange.

    The schedulable decomposition of :func:`synchronize` — handshake
    (:meth:`start`), one map-construction round per :meth:`step_round`,
    and the refinement/delta/fallback endgame (:meth:`finish`) — with
    the exact send/receive sequence of the former run-to-completion
    loop, so the sequential driver below stays byte-identical and the
    pipelined collection scheduler can interleave many sessions' rounds
    over one shared channel.

    Round checkpoints (``checkpointer``) use the same
    :func:`~repro.core.snapshot.snapshot_round_state` payloads as
    before, so checkpoints stay interchangeable between schedulers.
    """

    def __init__(
        self,
        client_data: bytes,
        server_data: bytes,
        config: ProtocolConfig | None = None,
        checkpointer=None,
    ) -> None:
        self.client_data = client_data
        self.server_data = server_data
        self.config = config or ProtocolConfig()
        self.checkpointer = checkpointer
        self.server = ServerSession(server_data, self.config)
        self.client = ClientSession(client_data, self.config)
        self.rounds = 0
        self.unchanged = False
        self.continuation_candidates = 0
        self.continuation_accepted = 0
        self.trace: list[SubphaseTrace] = []
        self._started = False
        self._no_more = False

    # ------------------------------------------------------------------
    def start(self, channel: SimulatedChannel, resume_from=None) -> None:
        """Run the handshake, or restore a checkpointed round boundary."""
        if resume_from is not None:
            from repro.core.snapshot import restore_round_state

            (
                self.rounds,
                self.continuation_candidates,
                self.continuation_accepted,
            ) = restore_round_state(resume_from.payload, self.client, self.server)
        else:
            # --- Handshake ---------------------------------------------
            request = BitWriter()
            request.write_uvarint(len(self.client_data))
            channel.send(
                Direction.CLIENT_TO_SERVER,
                request.getvalue(),
                PHASE_HANDSHAKE,
                bits=request.bit_length,
            )
            self.server.set_client_length(
                BitReader(
                    channel.receive(Direction.CLIENT_TO_SERVER)
                ).read_uvarint()
            )

            hello = BitWriter()
            hello.write_bytes(self.server.fingerprint())
            hello.write_uvarint(len(self.server_data))
            channel.send(
                Direction.SERVER_TO_CLIENT, hello.getvalue(), PHASE_HANDSHAKE
            )
            hello_reader = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
            self.unchanged = self.client.process_handshake(
                hello_reader.read_bytes(16), hello_reader.read_uvarint()
            )

            channel.send(
                Direction.CLIENT_TO_SERVER,
                b"\x00" if self.unchanged else b"\x01",
                PHASE_HANDSHAKE,
                bits=1,
            )
            channel.receive(Direction.CLIENT_TO_SERVER)
        if not self.unchanged:
            assert self.server.global_bits is not None
        self._started = True

    @property
    def done(self) -> bool:
        """True when no map-construction rounds remain.

        Mirrors the former loop condition exactly: the ``max_rounds``
        guard doubles as part of the condition so a run resumed *at* the
        cap does not buy extra rounds.
        """
        if not self._started:
            return False
        if self.unchanged or self._no_more:
            return True
        if not (
            self.server.tracker.has_active()
            or self.client._require_tracker().has_active()
        ):
            return True
        config = self.config
        return config.max_rounds is not None and self.rounds >= config.max_rounds

    # ------------------------------------------------------------------
    def step_round(self, channel: SimulatedChannel) -> None:
        """Execute exactly one map-construction round, checkpoint included."""
        if not self._started:
            raise ValueError("step_round before start()")
        config = self.config
        self.rounds += 1
        if self.rounds > _STALL_ROUND_LIMIT:
            raise SyncStalledError(
                f"map construction still has active blocks after "
                f"{_STALL_ROUND_LIMIT} rounds — session is not converging"
            )
        channel.mark_round(self.rounds)
        client_tracker = self.client._require_tracker()
        if config.continuation_first and config.continuation_enabled:
            planners = [
                lambda tracker, bits: plan_continuation(tracker),
                plan_global,
            ]
        else:
            planners = [plan_mixed]
        for planner in planners:
            # Plans must be derived immediately before each sub-phase:
            # the continuation sub-phase's confirmations feed the global
            # sub-phase's skip rules.
            found, accepted, subphase_trace = _run_subphase(
                channel,
                self.client,
                self.server,
                planner(self.server.tracker, self.server.global_bits),
                planner(client_tracker, self.client.global_bits),
                round_index=self.rounds,
            )
            self.continuation_candidates += found
            self.continuation_accepted += accepted
            if subphase_trace is not None:
                self.trace.append(subphase_trace)
        more_server = self.server.tracker.advance_level()
        more_client = client_tracker.advance_level()
        if more_server != more_client:
            raise ProtocolError("endpoint trees diverged while splitting")
        if self.checkpointer is not None:
            from repro.core.snapshot import snapshot_round_state

            self.checkpointer.record_round(
                self.rounds,
                snapshot_round_state(
                    self.client,
                    self.server,
                    self.rounds,
                    self.continuation_candidates,
                    self.continuation_accepted,
                ),
                channel.stats,
            )
        if not more_server:
            self._no_more = True

    # ------------------------------------------------------------------
    def finish(self, channel: SimulatedChannel) -> SyncResult:
        """Refinement, delta and the fingerprint-guarded endgame."""
        if self.unchanged:
            return SyncResult(
                reconstructed=self.client_data,
                stats=channel.stats,
                unchanged=True,
                used_fallback=False,
                matched_blocks=0,
                known_fraction=1.0,
                rounds=0,
                trace=[],
            )
        config = self.config

        # --- Boundary refinement (optional, §5.4) ----------------------
        if config.refine_boundaries:
            from repro.core.refine import run_boundary_refinement

            run_boundary_refinement(channel, self.client, self.server)

        # --- Delta phase -----------------------------------------------
        delta = self.server.emit_delta()
        channel.send(Direction.SERVER_TO_CLIENT, delta, PHASE_DELTA)
        reconstructed = self.client.apply_delta(
            channel.receive(Direction.SERVER_TO_CLIENT)
        )

        used_fallback = False
        if reconstructed is None:
            used_fallback = True
            channel.send(
                Direction.CLIENT_TO_SERVER, b"\x01", PHASE_FALLBACK, bits=1
            )
            channel.receive(Direction.CLIENT_TO_SERVER)
            if config.collision_retries > 0:
                # Repeat with an independent hash function (different
                # substitution table); all bytes land on the same channel.
                retry_config = config.with_overrides(
                    hash_seed=config.hash_seed + 1,
                    collision_retries=config.collision_retries - 1,
                )
                retry = synchronize(
                    self.client_data, self.server_data, retry_config, channel
                )
                retry.used_fallback = True
                return retry
            channel.send(
                Direction.SERVER_TO_CLIENT,
                zlib.compress(self.server_data, 9),
                PHASE_FALLBACK,
            )
            reconstructed = zlib.decompress(
                channel.receive(Direction.SERVER_TO_CLIENT)
            )
        else:
            channel.send(
                Direction.CLIENT_TO_SERVER, b"\x00", PHASE_FALLBACK, bits=1
            )
            channel.receive(Direction.CLIENT_TO_SERVER)

        file_map = self.client._require_map()
        return SyncResult(
            reconstructed=reconstructed,
            stats=channel.stats,
            unchanged=False,
            used_fallback=used_fallback,
            matched_blocks=len(file_map),
            known_fraction=file_map.known_fraction,
            rounds=self.rounds,
            continuation_candidates=self.continuation_candidates,
            continuation_accepted=self.continuation_accepted,
            trace=self.trace,
        )


def synchronize(
    client_data: bytes,
    server_data: bytes,
    config: ProtocolConfig | None = None,
    channel: SimulatedChannel | None = None,
    checkpointer=None,
    resume_from=None,
) -> SyncResult:
    """Synchronise the client's file to the server's current version.

    Always returns a reconstruction equal to ``server_data``; the
    whole-file fingerprint plus the full-transfer fallback guarantee it
    even under (engineered) hash collisions.

    ``checkpointer`` (an opened
    :class:`~repro.resilience.checkpoint.SessionJournal`) snapshots both
    endpoints after every completed round; ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.RoundCheckpoint`) rebuilds that
    state and continues, skipping the handshake and the already-completed
    rounds.  The caller of a resumed run is expected to have seeded
    ``channel.stats`` with the checkpoint's counters so the returned
    stats cover the whole logical session.

    This is the sequential driver over :class:`CoreSyncSession`; the
    pipelined collection scheduler drives the same state machine with
    the rounds of many files interleaved.
    """
    if channel is None:
        channel = SimulatedChannel()
    session = CoreSyncSession(
        client_data, server_data, config, checkpointer=checkpointer
    )
    session.start(channel, resume_from=resume_from)
    while not session.done:
        session.step_round(channel)
    return session.finish(channel)
