"""Orchestration of one file synchronization over the simulated channel.

:func:`synchronize` drives both endpoints through the full exchange:

1. handshake (client file length →; server fingerprint + file length ←);
2. rounds of map construction — per block size, an optional continuation
   sub-phase followed by a global sub-phase, each consisting of a hash
   message, a candidate bitmap, and the verification batches of the
   configured group-testing strategy — run for a whole stack of files
   at once (:meth:`CoreSyncSession.step_round`), each file's messages
   on its own channel;
3. the final delta, then the integrity endgame shared by every protocol
   (:func:`~repro.core.repair.integrity_endgame`): the reconstruction is
   checked against the whole-file fingerprint and, on a mismatch,
   repaired by a leaf-digest descent or, failing that, fetched again as
   a compressed full transfer charged to ``retransmitted_bits``; a
   1-bit ACK closes a clean exchange.

Both sessions evolve mirrored block trees; any divergence is a bug and
raises :class:`~repro.exceptions.ProtocolError` immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import CONTINUATION, KIND_OF_CODE, BlockTracker, Frontier
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.planning import (
    HashPlan,
    apply_known_hashes,
    plan_continuation,
    plan_global,
    plan_mixed,
)
from repro.core.repair import (
    PHASE_FALLBACK,
    IntegrityOutcome,
    integrity_endgame,
)
from repro.core.server import ServerSession
from repro.core.trace import SubphaseTrace
from repro.exceptions import (
    ProtocolError,
    SyncStalledError,
    TruncatedMessageError,
)
from repro.grouptesting.strategies import BatchMode, BatchScope
from repro.io.bitstream import (
    BitReader,
    BitWriter,
    pack_messages,
    unpack_messages,
)
from repro.lanes import Request, run_lane
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats

PHASE_HANDSHAKE = "handshake"
PHASE_MAP = "map"
PHASE_DELTA = "delta"

#: Hard stall circuit for map construction.  A healthy session's round
#: count is bounded by the block-split depth (~log2 of the file size, so
#: < 64 even for exabyte files); hitting this ceiling means the frontier
#: stopped converging (adversarial corruption, a forged resume, a bug)
#: and the session dies with a typed error instead of looping.  Distinct
#: from ``config.max_rounds``, which is a *graceful* byte/latency cap.
_STALL_ROUND_LIMIT = 96


@dataclass(kw_only=True)
class SyncResult(IntegrityOutcome):
    """Outcome of one synchronization run.

    The reconstruction and the integrity fields (``used_fallback``,
    ``collisions_detected``, ``repaired``, ``repair_rounds``,
    ``repair_bytes``) are those of
    :class:`~repro.core.repair.IntegrityOutcome`.
    """

    stats: TransferStats
    unchanged: bool
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


class RoundRequest(Request):
    """A lane's next map-construction round, run stacked by
    :meth:`CoreSyncSession.step_round` with every other pending round
    of the same config."""

    __slots__ = ("session", "channel")

    def __init__(self, session: "CoreSyncSession", channel: SimulatedChannel) -> None:
        self.session = session
        self.channel = channel

    def stack_key(self):
        return (RoundRequest, self.session.config)

    def rows(self) -> int:
        return int(self.session.server.tracker.starts.size)

    @classmethod
    def run_stacked(cls, requests: "list[RoundRequest]") -> list:
        return CoreSyncSession.step_round(requests)


def _lane_cut(lanes: np.ndarray, count: int) -> list[int]:
    """Cut points of lane-sorted ``lanes`` at every lane boundary."""
    return lanes.searchsorted(np.arange(count + 1)).tolist()


def _units(
    lanes: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    units: np.ndarray,
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Lane-sorted verification items as ``(lane, regions)`` units."""
    grouped: list[tuple[int, list[tuple[int, int]]]] = []
    last = -1
    for lane, offset, length, unit in zip(
        lanes.tolist(), offsets.tolist(), lengths.tolist(), units.tolist()
    ):
        if unit != last:
            grouped.append((lane, []))
            last = unit
        grouped[-1][1].append((offset, length))
    return grouped


class LaneChannels:
    """The channels of a stack of lanes and what failed on each.

    A lane that fails (its channel raised, its state diverged) keeps its
    error and takes no further part in the exchange; its rows may still
    ride along in arrays computed before, but nothing is sent for it
    and nothing is recorded into its trackers afterwards.  The broadcast
    protocol runs its private verification as a stack of one.
    """

    def __init__(
        self, config: ProtocolConfig, channels: list[SimulatedChannel]
    ) -> None:
        self.config = config
        self.channels = channels
        self.errors: list[Exception | None] = [None] * len(channels)

    def live(self) -> list[int]:
        return [lane for lane, error in enumerate(self.errors) if error is None]

    def fail(self, lane: int, error: Exception) -> None:
        if self.errors[lane] is None:
            self.errors[lane] = error

    def exchange(
        self,
        direction: Direction,
        lanes: list[int],
        messages: list[bytes],
        bits: np.ndarray,
    ) -> list:
        """Send each lane's message on its own channel; return what the
        far end received (``None`` where the lane failed).  An empty
        message is not sent and reads as ``b""``."""
        received = []
        for lane, message, width in zip(lanes, messages, bits.tolist()):
            payload = b""
            if self.errors[lane] is not None:
                payload = None
            elif width or message:
                channel = self.channels[lane]
                try:
                    channel.send(direction, message, PHASE_MAP, bits=width)
                    payload = channel.receive(direction)
                except Exception as exc:  # this lane's failure alone
                    self.fail(lane, exc)
                    payload = None
            received.append(payload)
        return received

    def fail_short(self, lanes: list[int], short: list[int]) -> None:
        for index in short:
            self.fail(lanes[index], TruncatedMessageError("message too short"))

    def verify(
        self, lanes, clients, servers, plan_lanes, client_regions,
        server_regions, client_items, server_items,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the configured verification strategy for every lane.

        Items are row indices, ``plan_lanes[row]`` the index into
        ``lanes`` of the row's lane.  The client verifies its candidate
        regions, the server its blocks: ``client_regions`` and
        ``server_regions`` are ``(offsets, lengths)`` arrays by row.
        Each batch of the strategy cuts its pool into units (singletons,
        or runs of ``group_size`` in lane order) and sends one hash per
        unit up and one pass bit per unit down; both endpoints fold the
        same bitmap into mirrored pools.  A failed group's members wait
        in a salvage pool that a ``FAILED_GROUP_MEMBERS`` batch tests on
        its own.  Returns each endpoint's accepted items, grouped by
        lane in acceptance order (salvaged items first), and the
        client->server verification bits each lane spent.
        """
        count = len(lanes)
        empty = np.zeros(0, dtype=np.int64)
        pools = {
            "client": [client_items, empty, []],
            "server": [server_items, empty, []],
        }
        verification_bits = np.zeros(count, dtype=np.int64)
        for batch in self.config.strategy().batches:
            selections = {}
            for side, pool in pools.items():
                if batch.scope is BatchScope.FAILED_GROUP_MEMBERS:
                    chosen, pool[1] = pool[1], empty
                    chosen = chosen[plan_lanes[chosen].argsort(kind="stable")]
                else:
                    chosen = pool[0]
                selections[side] = chosen
            counts = {
                side: np.bincount(plan_lanes[chosen], minlength=count)
                for side, chosen in selections.items()
            }
            for index in np.flatnonzero(counts["client"] != counts["server"]):
                self.fail(
                    lanes[index], ProtocolError("verification pools diverged")
                )
            # Failed lanes sit the batch out: no units, nothing sent.
            alive = np.asarray([self.errors[lane] is None for lane in lanes])
            for side, chosen in selections.items():
                selections[side] = chosen = chosen[alive[plan_lanes[chosen]]]
                counts[side] = np.bincount(plan_lanes[chosen], minlength=count)
            if not counts["client"].any():
                continue
            size = batch.group_size if batch.mode is BatchMode.GROUP else 1
            unit_counts = -(-counts["client"] // size)
            units = {}
            for side, chosen in selections.items():
                item_lanes = plan_lanes[chosen]
                first = np.cumsum(counts[side]) - counts[side]
                local = np.arange(chosen.size) - first[item_lanes]
                units[side] = (
                    np.cumsum(unit_counts) - unit_counts
                )[item_lanes] + local // size
            chosen = selections["client"]
            offsets, lengths = client_regions
            values = ClientSession.verification_values(
                clients,
                _units(
                    plan_lanes[chosen], offsets[chosen], lengths[chosen],
                    units["client"],
                ),
                batch,
            )
            messages, message_bits = pack_messages(
                values, batch.bits, unit_counts
            )
            verification_bits += message_bits
            received, short = unpack_messages(
                self.exchange(
                    Direction.CLIENT_TO_SERVER, lanes, messages, message_bits
                ),
                batch.bits,
                unit_counts,
            )
            self.fail_short(lanes, short)
            chosen = selections["server"]
            offsets, lengths = server_regions
            expected = ServerSession.verification_values(
                servers,
                _units(
                    plan_lanes[chosen], offsets[chosen], lengths[chosen],
                    units["server"],
                ),
                batch,
            )
            passed = received == np.asarray(expected, dtype=np.uint64)
            bitmaps, bitmap_bits = pack_messages(passed, 1, unit_counts)
            client_passed, short = unpack_messages(
                self.exchange(
                    Direction.SERVER_TO_CLIENT, lanes, bitmaps, bitmap_bits
                ),
                1,
                unit_counts,
            )
            self.fail_short(lanes, short)
            # Both endpoints fold the same bitmap into mirrored pools.
            for side, unit_passed in (
                ("client", client_passed.astype(bool)), ("server", passed),
            ):
                pool, chosen = pools[side], selections[side]
                item_passed = unit_passed[units[side]]
                if batch.scope is BatchScope.FAILED_GROUP_MEMBERS:
                    pool[2].append(chosen[item_passed])
                else:
                    if batch.mode is BatchMode.GROUP:
                        pool[1] = np.concatenate((pool[1], chosen[~item_passed]))
                    pool[0] = chosen[item_passed]
        accepted = []
        for main, _salvage, salvaged in pools.values():
            items = np.concatenate(salvaged + [main])
            accepted.append(items[plan_lanes[items].argsort(kind="stable")])
        return accepted[0], accepted[1], verification_bits



class _RoundStack(LaneChannels):
    """One stacked round: the lanes' sessions, channels and failures."""

    def __init__(self, requests: "list[RoundRequest]") -> None:
        self.sessions = [request.session for request in requests]
        super().__init__(
            self.sessions[0].config, [request.channel for request in requests]
        )

    # ------------------------------------------------------------------
    def run(self) -> list:
        for lane, (session, channel) in enumerate(
            zip(self.sessions, self.channels)
        ):
            session.rounds += 1
            if session.rounds > _STALL_ROUND_LIMIT:
                self.fail(lane, SyncStalledError(
                    f"map construction still has active blocks after "
                    f"{_STALL_ROUND_LIMIT} rounds — session is not converging"
                ))
            else:
                channel.mark_round(session.rounds)
        config = self.config
        if config.continuation_first and config.continuation_enabled:
            planners = [
                lambda frontier, bits: plan_continuation(frontier),
                plan_global,
            ]
        else:
            planners = [plan_mixed]
        for planner in planners:
            # Plans must be derived immediately before each sub-phase:
            # the continuation sub-phase's confirmations feed the global
            # sub-phase's skip rules.
            self.subphase(planner)
        self.advance()
        return self.errors

    # ------------------------------------------------------------------
    def subphase(self, planner) -> None:
        """One hash message + candidate bitmap + verification exchange,
        for every live lane."""
        lanes = self.live()
        if not lanes:
            return
        count = len(lanes)
        servers = [self.sessions[lane].server for lane in lanes]
        clients = [self.sessions[lane].client for lane in lanes]
        # Both endpoints of every lane, planned by one call.
        frontier = Frontier(
            [server.tracker for server in servers]
            + [client._require_tracker() for client in clients]
        )
        plan = planner(
            frontier,
            np.asarray(
                [server.global_bits for server in servers]
                + [client.global_bits for client in clients],
                dtype=np.int64,
            ),
        )
        cut = frontier.split(plan.rows)
        half = cut[count]
        server_plan = HashPlan(*(column[:half] for column in plan))
        client_plan = HashPlan(*(column[half:] for column in plan))
        server_cut = cut[: count + 1]
        client_cut = [at - half for at in cut[count:]]
        plan_lanes = np.repeat(np.arange(count), np.diff(server_cut))
        diverged = self.diverged(
            frontier, server_plan, client_plan, server_cut, client_cut,
            plan_lanes,
        )
        if diverged:
            for index in diverged:
                self.fail(lanes[index], ProtocolError("endpoint plans diverged"))
            return self.subphase(planner)
        if not server_plan.size:
            return

        plan_counts = np.diff(server_cut)
        messages, message_bits = ServerSession.emit_hashes(
            servers, server_plan, server_cut
        )
        payloads = self.exchange(
            Direction.SERVER_TO_CLIENT, lanes, messages, message_bits
        )
        positions, failures = ClientSession.process_hashes(
            clients, frontier, client_plan, client_cut, payloads
        )
        for index, error in failures.items():
            self.fail(lanes[index], error)
        found = positions >= 0

        bitmaps, bitmap_bits = pack_messages(found, 1, plan_counts)
        server_flags, short = unpack_messages(
            self.exchange(
                Direction.CLIENT_TO_SERVER, lanes, bitmaps, bitmap_bits
            ),
            1,
            plan_counts,
        )
        self.fail_short(lanes, short)

        accepted_client, accepted_server, verification_bits = self.verify(
            lanes, clients, servers, plan_lanes,
            (positions, client_plan.lengths),
            (server_plan.starts, server_plan.lengths),
            found.nonzero()[0], server_flags.nonzero()[0],
        )
        self.record(
            lanes, frontier, plan, server_plan, client_plan, plan_lanes,
            positions, found, accepted_client, accepted_server,
            message_bits, verification_bits,
        )

    def diverged(
        self, frontier, server_plan, client_plan, server_cut, client_cut,
        plan_lanes,
    ) -> list[int]:
        """Lanes whose endpoints planned differently (a mirror check that
        is free in process; a real deployment relies on determinism)."""
        count = len(server_cut) - 1
        if server_cut == client_cut:
            server_rows = server_plan.rows - frontier.bounds[plan_lanes]
            client_rows = client_plan.rows - frontier.bounds[count + plan_lanes]
            if np.array_equal(server_rows, client_rows) and all(
                np.array_equal(ours, theirs)
                for ours, theirs in zip(server_plan[1:], client_plan[1:])
            ):
                return []
        diverged = []
        for index in range(count):
            ours = slice(server_cut[index], server_cut[index + 1])
            theirs = slice(client_cut[index], client_cut[index + 1])
            if not (
                np.array_equal(
                    server_plan.rows[ours] - frontier.bounds[index],
                    client_plan.rows[theirs] - frontier.bounds[count + index],
                )
                and all(
                    np.array_equal(mine[ours], other[theirs])
                    for mine, other in zip(server_plan[1:], client_plan[1:])
                )
            ):
                diverged.append(index)
        return diverged

    def record(
        self, lanes, frontier, plan, server_plan, client_plan, plan_lanes,
        positions, found, accepted_client, accepted_server, hash_bits,
        verification_bits,
    ) -> None:
        """Fold the sub-phase's confirmations into both endpoints."""
        count = len(lanes)
        client_cut = _lane_cut(plan_lanes[accepted_client], count)
        server_cut = _lane_cut(plan_lanes[accepted_server], count)
        plan_cut = _lane_cut(plan_lanes, count)
        trace = self.config.collect_trace
        for index, lane in enumerate(lanes):
            if self.errors[lane] is not None:
                continue
            session = self.sessions[lane]
            rows = accepted_client[client_cut[index] : client_cut[index + 1]]
            session.client._require_tracker().record_matches(
                client_plan.rows[rows] - frontier.bounds[count + index]
            )
            session.client.record_accepted(
                client_plan.starts[rows],
                client_plan.lengths[rows],
                positions[rows],
            )
            server_rows = accepted_server[
                server_cut[index] : server_cut[index + 1]
            ]
            session.server.tracker.record_matches(
                server_plan.rows[server_rows] - frontier.bounds[index]
            )
            lo, hi = plan_cut[index], plan_cut[index + 1]
            if trace and hi > lo:
                kinds = np.bincount(
                    server_plan.kinds[lo:hi], minlength=len(KIND_OF_CODE)
                )
                session.trace.append(
                    SubphaseTrace(
                        round_index=session.rounds,
                        block_length=int(server_plan.lengths[lo:hi].max()),
                        hash_counts={
                            kind: int(number)
                            for kind, number in zip(KIND_OF_CODE, kinds.tolist())
                            if number
                        },
                        hash_bits_sent=int(hash_bits[index]),
                        candidates=int(np.count_nonzero(found[lo:hi])),
                        accepted=int(rows.size),
                        verification_bits=int(verification_bits[index]),
                    )
                )

        # Both endpoints now mark failed continuation attempts identically.
        continuation = client_plan.kinds == CONTINUATION
        if np.count_nonzero(continuation):
            for half, accepted in (
                (server_plan, accepted_server), (client_plan, accepted_client),
            ):
                failed = half.kinds == CONTINUATION
                failed[accepted] = False
                frontier.scatter("continuation_failed", half.rows[failed], True)
            candidates = np.bincount(
                plan_lanes[continuation & found], minlength=count
            ).tolist()
            confirmed = np.bincount(
                plan_lanes[accepted_client[continuation[accepted_client]]],
                minlength=count,
            ).tolist()
            for index, lane in enumerate(lanes):
                session = self.sessions[lane]
                session.continuation_candidates += candidates[index]
                session.continuation_accepted += confirmed[index]
        apply_known_hashes(frontier, plan)

    def advance(self) -> None:
        """Split every live lane's trees (both endpoints, one call) and
        checkpoint the completed round, lane by lane."""
        lanes = self.live()
        if not lanes:
            return
        sessions = [self.sessions[lane] for lane in lanes]
        more = BlockTracker.advance_level(
            *[session.server.tracker for session in sessions],
            *[session.client._require_tracker() for session in sessions],
        ).tolist()
        count = len(lanes)
        for index, (lane, session) in enumerate(zip(lanes, sessions)):
            if more[index] != more[count + index]:
                self.fail(
                    lane, ProtocolError("endpoint trees diverged while splitting")
                )
                continue
            if session.checkpointer is not None:
                from repro.core.snapshot import snapshot_round_state

                try:
                    session.checkpointer.record_round(
                        session.rounds,
                        snapshot_round_state(
                            session.client,
                            session.server,
                            session.rounds,
                            session.continuation_candidates,
                            session.continuation_accepted,
                        ),
                        self.channels[lane].stats,
                    )
                except Exception as exc:  # this lane's journal alone
                    self.fail(lane, exc)
                    continue
            if not more[index]:
                session._no_more = True


class CoreSyncSession:
    """Resumable step-wise state machine for one core-protocol exchange.

    The schedulable decomposition of :func:`synchronize` — handshake
    (:meth:`start`), map-construction rounds and the
    refinement, delta and integrity endgame (:meth:`finish`).  :meth:`steps`
    runs it as a lane (:mod:`repro.lanes`): each round is a
    :class:`RoundRequest`, and :meth:`step_round` runs the pending
    rounds of a whole stack of sessions as one call.  Each session
    keeps its own channel, so a file's transcript is the same however
    many files share its stack, and a pipelined collection can replay
    many sessions' transcripts over one shared channel.

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

    # ------------------------------------------------------------------
    def steps(self, channel: SimulatedChannel, resume_from=None):
        """This session as a lane: a step generator over ``channel``.

        Yields after the handshake and after every round, and yields
        each round as a :class:`RoundRequest` for the driver to run
        stacked.  Returns the :class:`SyncResult`.
        """
        self.start(channel, resume_from=resume_from)
        yield
        while not self.done:
            yield RoundRequest(self, channel)
            yield
        return self.finish(channel)

    # ------------------------------------------------------------------
    @staticmethod
    def step_round(requests: "list[RoundRequest]") -> list:
        """Execute one map-construction round for every request's session.

        The sessions share one config (the requests' stack key); each
        has its own channel.  Planning both endpoints, emitting and
        parsing hashes, the candidate bitmaps, verification hashing and
        the level split each run once for the whole stack, and every
        lane's messages are sliced out of the stacked output and sent on
        its own channel, in the order a session alone would send them.
        Round checkpoints are recorded per lane.  Returns one entry per
        request: ``None`` if its round completed, else the error its
        lane failed with (it took no further part in the round).
        """
        return _RoundStack(requests).run()

    def finish(self, channel: SimulatedChannel) -> SyncResult:
        """Refinement, delta and the integrity endgame."""
        if self.unchanged:
            return SyncResult(
                reconstructed=self.client_data,
                stats=channel.stats,
                unchanged=True,
                matched_blocks=0,
                known_fraction=1.0,
                rounds=0,
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

        outcome = integrity_endgame(
            channel,
            reconstructed,
            self.server_data,
            self.client.server_fingerprint,
            repair=True,
            leaf_size=config.min_block_size,
            packed_signals=True,
        )
        if not outcome.collisions_detected:
            channel.send(
                Direction.CLIENT_TO_SERVER, b"\x00", PHASE_FALLBACK, bits=1
            )
            channel.receive(Direction.CLIENT_TO_SERVER)

        file_map = self.client._require_map()
        return SyncResult(
            stats=channel.stats,
            unchanged=False,
            matched_blocks=len(file_map),
            known_fraction=file_map.known_fraction,
            rounds=self.rounds,
            continuation_candidates=self.continuation_candidates,
            continuation_accepted=self.continuation_accepted,
            trace=self.trace,
            **vars(outcome),
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
    whole-file fingerprint, the repair descent and the full-transfer
    fallback guarantee it even under (engineered) hash collisions.

    ``checkpointer`` (an opened
    :class:`~repro.resilience.checkpoint.SessionJournal`) snapshots both
    endpoints after every completed round; ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.RoundCheckpoint`) rebuilds that
    state and continues, skipping the handshake and the already-completed
    rounds.  The caller of a resumed run is expected to have seeded
    ``channel.stats`` with the checkpoint's counters so the returned
    stats cover the whole logical session.

    This drives one :meth:`CoreSyncSession.steps` lane as a stack of
    one; the collection executor drives the same lanes stacked.
    """
    if channel is None:
        channel = SimulatedChannel()
    session = CoreSyncSession(
        client_data, server_data, config, checkpointer=checkpointer
    )
    return run_lane(session.steps(channel, resume_from=resume_from))
