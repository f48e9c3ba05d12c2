"""Multi-client broadcast server with cross-client delta reuse (DESIGN §17).

The paper's deployment: one server pushes an updated collection to many
stale replicas.  :class:`BroadcastDeltaServer` holds the update once —
content-deduplicated (:class:`~repro.reuse.dedup.DedupStore`), sketched
(:class:`~repro.reuse.similarity.SimilarityIndex`) and memoized
(:class:`~repro.reuse.memo.DeltaMemoCache`) — and serves each client the
cheapest sound update per file:

1. **unchanged** — fingerprints agree, zero bytes;
2. **self-delta** — the client's previous version is the reference; the
   encoded payload is memoized by content pair, so every client at the
   same staleness after the first is a cache hit with zero matcher work;
3. **sibling-delta** — the client lacks the file, but holds a similar
   one (min-hash resemblance above threshold): delta against that
   sibling instead of a full transfer;
4. **full** — compressed literal transfer, the last resort.

Every decision is verified: the served payload must reconstruct the
server's bytes exactly before it is handed out.  Distinct from
:mod:`repro.core.broadcast` (the paper's §7 multicast *rounds*); this
module is about server-side computation reuse across unicast clients.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.delta.encoder import zdelta_decode, zdelta_encode
from repro.delta.matcher import DEFAULT_SEED_LENGTH
from repro.exceptions import IntegrityError
from repro.hashing.strong import file_fingerprint
from repro.reuse.dedup import DedupStore
from repro.reuse.memo import DeltaMemoCache, default_delta_memo
from repro.reuse.similarity import (
    DEFAULT_RESEMBLANCE_THRESHOLD,
    SimilarityIndex,
)


@dataclass(frozen=True)
class FileDecision:
    """How one file travelled to one client."""

    name: str
    action: str  # "unchanged" | "self-delta" | "sibling-delta" | "full"
    wire_bytes: int
    reference: str | None = None  # sibling name for "sibling-delta"
    resemblance: float = 0.0
    memo_hit: bool = False
    dedup_hit: bool = False


@dataclass
class ClientUpdate:
    """One client's served update: payload accounting plus reuse counters."""

    decisions: list[FileDecision] = field(default_factory=list)
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    dedup_hits: int = 0
    delta_memo_hits: int = 0
    delta_memo_misses: int = 0
    sibling_refs_used: int = 0
    bytes_saved_vs_self_ref: int = 0

    @property
    def wire_bytes(self) -> int:
        return sum(decision.wire_bytes for decision in self.decisions)


class BroadcastDeltaServer:
    """Serves one updated collection to many clients, reusing all work."""

    def __init__(
        self,
        server_files: dict[str, bytes],
        memo: DeltaMemoCache | None = None,
        dedup: DedupStore | None = None,
        resemblance_threshold: float = DEFAULT_RESEMBLANCE_THRESHOLD,
    ) -> None:
        self.server_files = dict(server_files)
        self.memo = memo if memo is not None else default_delta_memo()
        self.dedup = dedup if dedup is not None else DedupStore()
        self.resemblance_threshold = resemblance_threshold
        self.clients_served = 0
        #: fingerprint -> min-hash signature, shared across clients.
        self._signatures: dict[bytes, np.ndarray] = {}
        #: (reference_fp, target_fp) pairs whose memoized payload already
        #: reconstructed the target exactly once.  The memo returns the
        #: byte-identical payload and decoding is deterministic, so later
        #: clients skip the decode and reuse the canonical target bytes.
        self._verified: set[tuple[bytes, bytes]] = set()
        self.fingerprints = self.dedup.ingest(self.server_files)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_history(self, versions: dict[str, bytes]) -> dict[str, bytes]:
        """Register previous versions as canonical reference blobs.

        A client whose stale copy matches any ingested version is then
        served from the dedup store without resending its bytes — the
        ``dedup_hit`` on its decision records that.
        """
        return self.dedup.ingest(versions)

    def _signature(
        self, index: SimilarityIndex, fingerprint: bytes, data: bytes
    ) -> np.ndarray:
        signature = self._signatures.get(fingerprint)
        if signature is None:
            signature = index.signature_of(data)
            self._signatures[fingerprint] = signature
        return signature

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, client_files: dict[str, bytes]) -> ClientUpdate:
        """Compute one client's update; memo/dedup state stays warm."""
        update = ClientUpdate()
        stats = self.memo.stats
        hits_before, misses_before = stats.hits, stats.misses

        # The sibling pool is what the *client* holds: references must be
        # bytes the receiving side can delta against.
        sibling_index = SimilarityIndex()
        client_fingerprints: dict[str, bytes] = {}
        for name in sorted(client_files):
            fingerprint = file_fingerprint(client_files[name])
            client_fingerprints[name] = fingerprint
            sibling_index.add(
                name,
                signature=self._signature(
                    sibling_index, fingerprint, client_files[name]
                ),
            )

        for name in sorted(self.server_files):
            new = self.server_files[name]
            new_fingerprint = self.fingerprints[name]
            old = client_files.get(name)
            if old is not None:
                old_fingerprint = client_fingerprints[name]
                if old_fingerprint == new_fingerprint:
                    decision = FileDecision(name, "unchanged", 0)
                    update.reconstructed[name] = old
                    update.decisions.append(decision)
                    continue
                decision = self._self_delta(
                    name, old, old_fingerprint, new, new_fingerprint, update
                )
            else:
                decision = self._sibling_or_full(
                    name,
                    new,
                    new_fingerprint,
                    sibling_index,
                    client_files,
                    client_fingerprints,
                    update,
                )
            update.decisions.append(decision)
            if update.reconstructed[name] != new:
                raise IntegrityError(
                    f"broadcast reconstruction differs at {name}"
                )

        update.delta_memo_hits = stats.hits - hits_before
        update.delta_memo_misses = stats.misses - misses_before
        self.clients_served += 1
        return update

    def _self_delta(
        self,
        name: str,
        old: bytes,
        old_fingerprint: bytes,
        new: bytes,
        new_fingerprint: bytes,
        update: ClientUpdate,
    ) -> FileDecision:
        # When the client's stale version is already a canonical blob
        # (an ingested past version), the server never touches the
        # client's bytes — the reference comes from the dedup store.
        dedup_hit = old_fingerprint in self.dedup
        reference = self.dedup.get(old_fingerprint) if dedup_hit else old
        if dedup_hit:
            update.dedup_hits += 1
        hits_before = self.memo.stats.hits
        payload = self.memo.payload(
            "zdelta",
            old_fingerprint,
            new_fingerprint,
            DEFAULT_SEED_LENGTH,
            lambda: zdelta_encode(reference, new),
        )
        update.reconstructed[name] = self._reconstruct(
            reference, old_fingerprint, new, new_fingerprint, payload, name
        )
        return FileDecision(
            name,
            "self-delta",
            len(payload),
            memo_hit=self.memo.stats.hits > hits_before,
            dedup_hit=dedup_hit,
        )

    def _reconstruct(
        self,
        reference: bytes,
        reference_fingerprint: bytes,
        new: bytes,
        new_fingerprint: bytes,
        payload: bytes,
        name: str,
    ) -> bytes:
        """Decode-and-verify once per content pair; replay for free after.

        The memo hands every client at the same staleness the identical
        payload, and decoding is a pure function of (reference, payload),
        so one successful reconstruction proves them all.
        """
        key = (reference_fingerprint, new_fingerprint)
        if key in self._verified:
            return new
        reconstructed = zdelta_decode(reference, payload)
        if reconstructed != new:
            raise IntegrityError(
                f"broadcast reconstruction differs at {name}"
            )
        self._verified.add(key)
        return reconstructed

    def _sibling_or_full(
        self,
        name: str,
        new: bytes,
        new_fingerprint: bytes,
        sibling_index: SimilarityIndex,
        client_files: dict[str, bytes],
        client_fingerprints: dict[str, bytes],
        update: ClientUpdate,
    ) -> FileDecision:
        # Full-transfer compression is a pure function of the content, so
        # it shares the memo (coder "zlib", reference = target).
        full_payload = self.memo.payload(
            "zlib",
            new_fingerprint,
            new_fingerprint,
            0,
            lambda: zlib.compress(new, 9),
        )
        candidate = sibling_index.best_reference(
            signature=self._signature(sibling_index, new_fingerprint, new),
            threshold=self.resemblance_threshold,
        )
        if candidate is not None:
            sibling_name, resemblance = candidate
            sibling = client_files[sibling_name]
            hits_before = self.memo.stats.hits
            payload = self.memo.payload(
                "zdelta",
                client_fingerprints[sibling_name],
                new_fingerprint,
                DEFAULT_SEED_LENGTH,
                lambda: zdelta_encode(sibling, new),
            )
            if len(payload) < len(full_payload):
                update.sibling_refs_used += 1
                update.bytes_saved_vs_self_ref += (
                    len(full_payload) - len(payload)
                )
                update.reconstructed[name] = self._reconstruct(
                    sibling,
                    client_fingerprints[sibling_name],
                    new,
                    new_fingerprint,
                    payload,
                    name,
                )
                return FileDecision(
                    name,
                    "sibling-delta",
                    len(payload),
                    reference=sibling_name,
                    resemblance=resemblance,
                    memo_hit=self.memo.stats.hits > hits_before,
                )
        update.reconstructed[name] = zlib.decompress(full_payload)
        return FileDecision(name, "full", len(full_payload))
