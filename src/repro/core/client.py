"""The client endpoint: owns the outdated file ``F_old`` and builds the map."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    DERIVED,
    GLOBAL,
    LOCAL,
    BlockTracker,
)
from repro.core.config import ProtocolConfig
from repro.core.filemap import FileMap
from repro.core.planning import HashPlan
from repro.core.verification import region_verification_values
from repro.delta import vcdiff_decode, zdelta_decode
from repro.exceptions import DeltaFormatError, ProtocolError
from repro.grouptesting.strategies import BatchSpec
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import (
    HashIndex,
    PrefixHasher,
    decompose_right_widths,
    pack_to_widths,
)
from repro.hashing.strong import StrongHasher, file_fingerprint
from repro.io.bitstream import BitReader
from repro.parallel.cache import HashIndexCache, default_cache


#: Upper sentinel of :class:`SortedPositionMap` keys (above any offset).
_SENTINEL = np.iinfo(np.int64).max


class SortedPositionMap:
    """An int→int map backed by sorted ndarrays instead of a dict.

    The client's match-extension bookkeeping (``_source_after_end`` /
    ``_source_at_start``) answers a whole round's probes in one
    ``searchsorted`` pass (:meth:`get_many`).  Writes append and mark the
    snapshot dirty; the sort is rebuilt lazily on the next probe, with
    the last write for a key winning — exactly dict semantics.
    """

    __slots__ = ("_keys", "_values", "_sorted_keys", "_sorted_values")

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._values: list[int] = []
        self._sorted_keys: np.ndarray | None = None
        self._sorted_values: np.ndarray | None = None

    def __setitem__(self, key: int, value: int) -> None:
        self._keys.append(key)
        self._values.append(value)
        self._sorted_keys = None

    def set_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Batched ``self[key] = value``, in order."""
        self._keys.extend(keys.tolist())
        self._values.extend(values.tolist())
        self._sorted_keys = None

    def _ensure_sorted(self) -> np.ndarray:
        """Sorted unique keys plus a trailing sentinel (value ``-1``)."""
        if self._sorted_keys is not None:
            return self._sorted_keys
        keys = np.asarray(self._keys, dtype=np.int64)
        values = np.asarray(self._values, dtype=np.int64)
        order = keys.argsort(kind="stable")
        keys = keys[order]
        values = values[order]
        # Stable sort keeps insertion order within equal keys; keep the
        # last occurrence so rewrites override earlier entries.
        keep = np.ones(keys.size, dtype=bool)
        keep[:-1] = keys[1:] != keys[:-1]
        self._sorted_keys = np.append(keys[keep], _SENTINEL)
        self._sorted_values = np.append(values[keep], -1)
        return self._sorted_keys

    def __len__(self) -> int:
        return self._ensure_sorted().size - 1

    def get(self, key: int) -> int | None:
        """Point probe."""
        value = int(self.get_many(np.asarray([key], dtype=np.int64))[0])
        return None if value < 0 else value

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched probe: one value per key, ``-1`` where absent."""
        sorted_keys = self._ensure_sorted()
        at = sorted_keys.searchsorted(keys)
        # Absent keys read the sentinel's -1 (probes are below it).
        at[sorted_keys[at] != keys] = sorted_keys.size - 1
        return self._sorted_values[at]


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

    def process_hashes(self, plan: HashPlan, payload: bytes) -> np.ndarray:
        """Parse a hash message; return one candidate position per plan row.

        ``-1`` marks rows without a candidate.  Derived hashes are
        reconstructed from the parent's stored value and the left
        sibling's value, which precedes them in the same message.  Probe
        order per row: the source position right after the left
        neighbour's match, the one right before the right neighbour's
        match, then (GLOBAL/DERIVED) the full hash index or (LOCAL) the
        index around the anchoring match.
        """
        tracker = self._require_tracker()
        kinds, widths, starts, lengths = (
            plan.kinds, plan.widths, plan.starts, plan.lengths,
        )
        wire = kinds != DERIVED
        values = np.zeros(wire.size, dtype=np.uint64)
        values[wire] = BitReader(payload).read_many(
            np.count_nonzero(wire), widths[wire]
        )
        derived = (~wire).nonzero()[0]
        if derived.size:
            values[derived] = self._derive(tracker, plan, values, derived)
        known = kinds <= DERIVED  # GLOBAL or DERIVED
        tracker.known_value[plan.rows[known]] = values[known]

        max_start = len(self.data) - lengths
        candidate = np.full(wire.size, -1, dtype=np.int64)
        if len(self._source_at_start):
            after = self._source_after_end.get_many(starts)
            self._probe(
                candidate, after, (after >= 0) & (after <= max_start),
                lengths, widths, values,
            )
            at = self._source_at_start.get_many(starts + lengths) - lengths
            self._probe(
                candidate, at,
                (candidate < 0) & (at >= 0) & (at <= max_start),
                lengths, widths, values,
            )

        open_rows = (candidate < 0) & (max_start >= 0)
        lookup = (open_rows & known).nonzero()[0]
        if lookup.size:
            # One batched index lookup per (length, width) group.
            keys = lengths[lookup] * 64 + widths[lookup]
            queries = values.astype(np.uint32)
            for key in dict.fromkeys(keys.tolist()):
                members = lookup[keys == key]
                length, width = divmod(key, 64)
                candidate[members] = self._index(length).lookup_many(
                    queries[members], width
                )
        local = (open_rows & (kinds == LOCAL)).nonzero()[0]
        if local.size:
            self._local_candidates(tracker, plan, values, local, candidate)
        return candidate

    def _derive(
        self,
        tracker: BlockTracker,
        plan: HashPlan,
        values: np.ndarray,
        derived: np.ndarray,
    ) -> np.ndarray:
        """Values of DERIVED rows (right children) from parent and left."""
        rows = plan.rows[derived]
        left = derived - 1
        if (
            not tracker.paired
            or derived[0] == 0
            or np.count_nonzero(rows % 2 == 0)
            or np.count_nonzero(plan.rows[left] != rows - 1)
            or np.count_nonzero(plan.kinds[left] != GLOBAL)
        ):
            raise ProtocolError("derived hash without parent/sibling")
        pairs = rows // 2
        parent_widths = tracker.parent_known_width[pairs]
        widths = plan.widths[derived]
        if np.count_nonzero(parent_widths < widths):
            raise ProtocolError("derived hash without parent value")
        return decompose_right_widths(
            tracker.parent_known_value[pairs],
            parent_widths,
            values[left],
            widths,
            plan.lengths[derived],
        )

    def _probe(
        self,
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
        full = self.prefix.block_pairs(positions[rows], lengths[rows])
        matched = rows[pack_to_widths(full, widths[rows]) == values[rows]]
        candidate[matched] = positions[matched]

    def _local_candidates(
        self,
        tracker: BlockTracker,
        plan: HashPlan,
        values: np.ndarray,
        rows: np.ndarray,
        candidate: np.ndarray,
    ) -> None:
        """Anchored neighborhood search for LOCAL rows (rare; per row)."""
        starts = plan.starts[rows]
        anchors = tracker.local_anchors(starts, plan.lengths[rows])
        anchor_sources = self._source_at_start.get_many(anchors)
        radius = self.config.local_neighborhood
        for row, start, anchor, anchor_source in zip(
            rows.tolist(), starts.tolist(), anchors.tolist(),
            anchor_sources.tolist(),
        ):
            if anchor < 0 or anchor_source < 0:
                continue
            center = anchor_source + (start - anchor)
            positions = self._index(int(plan.lengths[row])).lookup_in_range(
                int(values[row]),
                int(plan.widths[row]),
                center - radius,
                center + radius,
                max_results=self.config.max_candidate_positions,
            )
            if positions:
                candidate[row] = positions[0]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verification_values(
        self, units: list[list[tuple[int, int]]], batch: BatchSpec
    ) -> list[int]:
        """The hash sent for each unit of ``(position, length)`` candidates."""
        return region_verification_values(self.strong, self.data, units, batch)

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
    def apply_delta(self, delta: bytes) -> bytes | None:
        """Decode the final delta; ``None`` signals a failed reconstruction."""
        reference = self._require_map().reference_from_source(self.data)
        try:
            if self.config.delta_coder == "vcdiff":
                reconstructed = vcdiff_decode(reference, delta)
            else:
                reconstructed = zdelta_decode(reference, delta)
        except DeltaFormatError:
            return None
        if (
            self.server_fingerprint is not None
            and file_fingerprint(reconstructed) != self.server_fingerprint
        ):
            return None
        return reconstructed
