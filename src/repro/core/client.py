"""The client endpoint: owns the outdated file ``F_old`` and builds the map."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    _LANE_SHIFT,
    DERIVED,
    GLOBAL,
    LOCAL,
    BlockTracker,
    Frontier,
)
from repro.core.config import ProtocolConfig
from repro.core.filemap import FileMap
from repro.core.planning import HashPlan
from repro.core.verification import region_verification_values
from repro.delta import vcdiff_decode, zdelta_decode
from repro.exceptions import (
    DeltaFormatError,
    ProtocolError,
    TruncatedMessageError,
)
from repro.grouptesting.strategies import BatchSpec
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import (
    HashIndex,
    PrefixHasher,
    decompose_right_widths,
    pack_to_widths,
)
from repro.hashing.strong import StrongHasher, file_fingerprint
from repro.io.bitstream import unpack_messages
from repro.parallel.cache import HashIndexCache, default_cache


#: Upper sentinel of :class:`SortedPositionMap` keys (above any offset).
_SENTINEL = np.iinfo(np.int64).max


class SortedPositionMap:
    """An int→int map backed by sorted ndarrays instead of a dict.

    The client's match-extension bookkeeping (``_source_after_end`` /
    ``_source_at_start``) answers a whole round's probes in one
    ``searchsorted`` pass (:meth:`get_stacked`).  The map keeps a sorted
    snapshot of unique keys; writes queue as batches, and the next probe
    merges every probed map's queued batches into its snapshot with one
    stable sort over the whole stack, the last write for a key winning —
    exactly dict semantics.
    """

    __slots__ = ("_keys", "_values", "_pending")

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def __setitem__(self, key: int, value: int) -> None:
        self.set_many(np.asarray([key]), np.asarray([value]))

    def set_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Batched ``self[key] = value``, in order."""
        if len(keys):
            self._pending.append(
                (np.array(keys, dtype=np.int64), np.array(values, dtype=np.int64))
            )

    def __len__(self) -> int:
        SortedPositionMap._stack([self])
        return self._keys.size

    def __bool__(self) -> bool:
        return bool(self._keys.size or self._pending)

    def get(self, key: int) -> int | None:
        """Point probe."""
        value = int(self.get_many(np.asarray([key], dtype=np.int64))[0])
        return None if value < 0 else value

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched probe: one value per key, ``-1`` where absent."""
        return SortedPositionMap.get_stacked(
            [self], np.zeros(len(keys), dtype=np.int64), keys
        )

    @staticmethod
    def _stack(
        maps: "list[SortedPositionMap]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every map's entries as one ``(lane << _LANE_SHIFT) + key`` table.

        Returns the sorted tagged keys and their values, each with a
        trailing sentinel (value ``-1``).  Queued writes are merged here:
        snapshots and batches are concatenated in write order, one stable
        sort orders the whole stack, the last of equal keys is kept, and
        each map's snapshot becomes its slice of the result.
        """
        key_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        counts: list[int] = []
        for m in maps:
            key_parts.append(m._keys)
            value_parts.append(m._values)
            count = m._keys.size
            for keys, values in m._pending:
                key_parts.append(keys)
                value_parts.append(values)
                count += keys.size
            counts.append(count)
        keys = np.concatenate(key_parts)
        values = np.concatenate(value_parts)
        stacked = (
            np.repeat(np.arange(len(maps), dtype=np.int64), counts)
            << _LANE_SHIFT
        ) + keys
        # Snapshots are sorted runs and batches mostly are: the stable
        # (timsort) pass is near-linear on them.
        order = stacked.argsort(kind="stable")
        stacked, keys, values = stacked[order], keys[order], values[order]
        keep = np.ones(stacked.size, dtype=bool)
        keep[:-1] = stacked[1:] != stacked[:-1]
        stacked, keys, values = stacked[keep], keys[keep], values[keep]
        cut = stacked.searchsorted(
            np.arange(len(maps) + 1, dtype=np.int64) << _LANE_SHIFT
        ).tolist()
        for m, lo, hi in zip(maps, cut, cut[1:]):
            m._keys, m._values, m._pending = keys[lo:hi], values[lo:hi], []
        return np.append(stacked, _SENTINEL), np.append(values, -1)

    @staticmethod
    def get_stacked(
        maps: "list[SortedPositionMap]", lanes: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Probe many lanes' maps at once: ``maps[lanes[i]].get(keys[i])``.

        Each lane's sorted keys are tagged with the lane, so the stacked
        table stays sorted and one ``searchsorted`` answers every probe.
        """
        stacked, values = SortedPositionMap._stack(maps)
        probes = (lanes << _LANE_SHIFT) + keys
        at = stacked.searchsorted(probes)
        # Absent keys read the sentinel's -1 (probes are below it).
        at[stacked[at] != probes] = stacked.size - 1
        return values[at]


class ClientSession:
    """Client-side protocol state for one file synchronization."""

    def __init__(
        self,
        data: bytes,
        config: ProtocolConfig,
        cache: HashIndexCache | None = None,
    ) -> None:
        self.data = data
        self.config = config
        self.hasher = DecomposableAdler(seed=config.hash_seed)
        self.strong = StrongHasher(salt=config.hash_seed.to_bytes(8, "big"))
        self._cache = cache if cache is not None else default_cache()
        self._fingerprint = file_fingerprint(data)
        self.prefix = PrefixHasher(
            data,
            self.hasher,
            sums=self._cache.prefix_sums(
                data, self.hasher, fingerprint=self._fingerprint
            ),
        )
        self.global_bits = config.resolve_global_hash_bits(len(data))
        self.server_fingerprint: bytes | None = None
        self.tracker: BlockTracker | None = None
        self.map: FileMap | None = None
        # Source positions keyed by target offsets, for match extension.
        self._source_after_end = SortedPositionMap()
        self._source_at_start = SortedPositionMap()
        self._indexes: dict[int, HashIndex] = {}

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def process_handshake(self, fingerprint: bytes, server_length: int) -> bool:
        """Learn the server file identity; returns True if already in sync."""
        self.server_fingerprint = fingerprint
        self.tracker = BlockTracker(server_length, self.config)
        self.map = FileMap(server_length)
        return self._fingerprint == fingerprint

    def _require_tracker(self) -> BlockTracker:
        if self.tracker is None:
            raise ProtocolError("handshake has not completed")
        return self.tracker

    def _require_map(self) -> FileMap:
        if self.map is None:
            raise ProtocolError("handshake has not completed")
        return self.map

    # ------------------------------------------------------------------
    # Candidate search
    # ------------------------------------------------------------------
    def _index(self, length: int) -> HashIndex:
        index = self._indexes.get(length)
        if index is None:
            if length > len(self.data):
                # No window of this length exists: an empty index, built
                # without scanning the data (and without a cache slot).
                index = HashIndex(b"", length, self.hasher)
            else:
                index = self._cache.hash_index(
                    self.data, length, self.hasher,
                    fingerprint=self._fingerprint,
                )
            self._indexes[length] = index
        return index

    @staticmethod
    def process_hashes(
        clients: "list[ClientSession]",
        frontier: Frontier,
        plan: HashPlan,
        cut: list[int],
        payloads: list,
    ) -> tuple[np.ndarray, dict[int, Exception]]:
        """Parse every lane's hash message of one sub-phase at once.

        ``clients[i]`` owns plan rows ``cut[i]:cut[i + 1]`` and received
        ``payloads[i]`` (``None``: lost); the plan rows index
        ``frontier``, which holds the clients' trackers.  Returns one
        candidate position per plan row (``-1`` = none) and the lanes
        whose message was malformed, with the error each should fail
        with.

        Derived hashes are reconstructed from the parent's stored value
        and the left sibling's value, which precedes them in the same
        message.  Probe order per row: the source position right after
        the left neighbour's match, the one right before the right
        neighbour's match, then (GLOBAL/DERIVED) the full hash index of
        that lane — one lookup per (lane, length, width) — or (LOCAL)
        the index around the anchoring match.
        """
        kinds, widths, starts, lengths = (
            plan.kinds, plan.widths, plan.starts, plan.lengths,
        )
        count = len(clients)
        lanes = np.repeat(np.arange(count), np.diff(cut))
        wire = kinds != DERIVED
        values = np.zeros(wire.size, dtype=np.uint64)
        values[wire], short = unpack_messages(
            payloads, widths[wire], np.bincount(lanes[wire], minlength=count)
        )
        failures: dict[int, Exception] = {
            lane: TruncatedMessageError("hash message too short")
            for lane in short
        }
        derived = (~wire).nonzero()[0]
        if derived.size:
            ClientSession._derive(frontier, plan, values, derived, lanes, failures)
        known = kinds <= DERIVED  # GLOBAL or DERIVED
        frontier.scatter("known_value", plan.rows[known], values[known])

        data_lengths = np.fromiter(
            (len(client.data) for client in clients), dtype=np.int64, count=count
        )
        # A failed lane's rows look for nothing (rows that cannot fit
        # the file are never probed).
        data_lengths[list(failures)] = -1
        max_start = data_lengths[lanes] - lengths
        candidate = np.full(wire.size, -1, dtype=np.int64)
        if any(client._source_at_start for client in clients):
            after = SortedPositionMap.get_stacked(
                [client._source_after_end for client in clients], lanes, starts
            )
            ClientSession._probe(
                clients, lanes, candidate, after,
                (after >= 0) & (after <= max_start), lengths, widths, values,
            )
            at = SortedPositionMap.get_stacked(
                [client._source_at_start for client in clients],
                lanes,
                starts + lengths,
            ) - lengths
            ClientSession._probe(
                clients, lanes, candidate, at,
                (candidate < 0) & (at >= 0) & (at <= max_start),
                lengths, widths, values,
            )

        open_rows = (candidate < 0) & (max_start >= 0)
        lookup = (open_rows & known).nonzero()[0]
        if lookup.size:
            # One batched index lookup per (lane, length, width) group.
            keys = (
                (lanes[lookup] << _LANE_SHIFT | lengths[lookup]) * 64
                + widths[lookup]
            )
            order = keys.argsort(kind="stable")
            keys = keys[order]
            members = lookup[order]
            heads = np.flatnonzero(np.diff(keys, prepend=-1))
            queries = values.astype(np.uint32)
            for head, tail in zip(
                heads.tolist(), np.append(heads[1:], keys.size).tolist()
            ):
                group = members[head:tail]
                lane_length, width = divmod(int(keys[head]), 64)
                lane, length = divmod(lane_length, 1 << _LANE_SHIFT)
                candidate[group] = clients[lane]._index(length).lookup_many(
                    queries[group], width
                )
        local = (open_rows & (kinds == LOCAL)).nonzero()[0]
        if local.size:
            ClientSession._local_candidates(
                clients, frontier, plan, values, local, lanes, candidate
            )
        return candidate, failures

    @staticmethod
    def _derive(
        frontier: Frontier,
        plan: HashPlan,
        values: np.ndarray,
        derived: np.ndarray,
        lanes: np.ndarray,
        failures: dict[int, Exception],
    ) -> None:
        """Fill DERIVED rows (right children) from parent and left values."""
        rows = plan.rows[derived]
        left = derived - 1
        frontier_lanes = frontier.lane[rows]
        local_rows = rows - frontier.bounds[frontier_lanes]
        ok = (
            frontier.paired_lanes[frontier_lanes]
            & (left >= 0)
            & (local_rows % 2 == 1)
            & (lanes[np.maximum(left, 0)] == lanes[derived])
            & (plan.rows[left] == rows - 1)
            & (plan.kinds[left] == GLOBAL)
        )
        for lane in np.unique(lanes[derived[~ok]]).tolist():
            failures.setdefault(
                lane, ProtocolError("derived hash without parent/sibling")
            )
        derived, rows, left = derived[ok], rows[ok], left[ok]
        parent_width, parent_value = frontier.parent_known()
        parents = frontier.parent_rows(rows)
        parent_widths = parent_width[parents]
        widths = plan.widths[derived]
        short = parent_widths < widths
        for lane in np.unique(lanes[derived[short]]).tolist():
            failures.setdefault(
                lane, ProtocolError("derived hash without parent value")
            )
        values[derived] = decompose_right_widths(
            parent_value[parents],
            np.maximum(parent_widths, widths),
            values[left],
            widths,
            plan.lengths[derived],
        )

    @staticmethod
    def _probe(
        clients: "list[ClientSession]",
        lanes: np.ndarray,
        candidate: np.ndarray,
        positions: np.ndarray,
        mask: np.ndarray,
        lengths: np.ndarray,
        widths: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Take ``positions`` for the masked rows whose hash matches there."""
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return
        full = np.empty(rows.size, dtype=np.uint32)
        cut = lanes[rows].searchsorted(np.arange(len(clients) + 1)).tolist()
        for client, lo, hi in zip(clients, cut, cut[1:]):
            if hi > lo:
                at = rows[lo:hi]
                full[lo:hi] = client.prefix.block_pairs(
                    positions[at], lengths[at]
                )
        matched = rows[pack_to_widths(full, widths[rows]) == values[rows]]
        candidate[matched] = positions[matched]

    @staticmethod
    def _local_candidates(
        clients: "list[ClientSession]",
        frontier: Frontier,
        plan: HashPlan,
        values: np.ndarray,
        rows: np.ndarray,
        lanes: np.ndarray,
        candidate: np.ndarray,
    ) -> None:
        """Anchored neighborhood search for LOCAL rows (rare; per row)."""
        starts = plan.starts[rows]
        anchors = frontier.local_anchors(plan.rows[rows])
        anchor_sources = SortedPositionMap.get_stacked(
            [client._source_at_start for client in clients], lanes[rows], anchors
        )
        for row, lane, start, anchor, anchor_source in zip(
            rows.tolist(), lanes[rows].tolist(), starts.tolist(),
            anchors.tolist(), anchor_sources.tolist(),
        ):
            if anchor < 0 or anchor_source < 0:
                continue
            client = clients[lane]
            radius = client.config.local_neighborhood
            center = anchor_source + (start - anchor)
            positions = client._index(int(plan.lengths[row])).lookup_in_range(
                int(values[row]),
                int(plan.widths[row]),
                center - radius,
                center + radius,
                max_results=client.config.max_candidate_positions,
            )
            if positions:
                candidate[row] = positions[0]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    @staticmethod
    def verification_values(
        clients: "list[ClientSession]",
        units: list[tuple[int, list[tuple[int, int]]]],
        batch: BatchSpec,
    ) -> list[int]:
        """The hash sent for each ``(lane, (position, length) candidates)`` unit."""
        return region_verification_values(clients, units, batch)

    def record_accepted(
        self, starts: np.ndarray, lengths: np.ndarray, positions: np.ndarray
    ) -> None:
        """Fold confirmed matches into the map and adjacency dictionaries."""
        file_map = self._require_map()
        if not starts.size:
            return
        for start, length, position in zip(
            starts.tolist(), lengths.tolist(), positions.tolist()
        ):
            file_map.add(start, length, position)
        self._source_after_end.set_many(starts + lengths, positions + lengths)
        self._source_at_start.set_many(starts, positions)

    # ------------------------------------------------------------------
    # Delta phase
    # ------------------------------------------------------------------
    def apply_delta(self, delta: bytes) -> bytes:
        """Decode the final delta; ``b""`` when it does not decode.

        The reconstruction is checked against the whole-file fingerprint
        by :func:`~repro.core.repair.integrity_endgame`, not here.
        """
        reference = self._require_map().reference_from_source(self.data)
        try:
            if self.config.delta_coder == "vcdiff":
                return vcdiff_decode(reference, delta)
            return zdelta_decode(reference, delta)
        except DeltaFormatError:
            return b""
