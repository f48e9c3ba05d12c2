"""The server endpoint: owns the current file ``F_new``."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import DERIVED, BlockTracker
from repro.core.config import ProtocolConfig
from repro.core.planning import HashPlan
from repro.core.verification import region_verification_values
from repro.delta import zdelta_encode
from repro.exceptions import ProtocolError
from repro.grouptesting.strategies import BatchSpec
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import PrefixHasher, pack_to_widths
from repro.hashing.strong import StrongHasher, file_fingerprint
from repro.io.bitstream import pack_messages
from repro.parallel.cache import HashIndexCache, default_cache


class ServerSession:
    """Server-side protocol state for one file synchronization."""

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
        self.tracker = BlockTracker(len(data), config)
        self.global_bits: int | None = None

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def set_client_length(self, client_length: int) -> None:
        """Learn the client file length (fixes the global hash width)."""
        if client_length < 0:
            raise ProtocolError(f"bad client length {client_length}")
        self.global_bits = self.config.resolve_global_hash_bits(client_length)

    def fingerprint(self) -> bytes:
        """16-byte whole-file checksum, sent first."""
        return self._fingerprint

    # ------------------------------------------------------------------
    # Map construction
    # ------------------------------------------------------------------
    @staticmethod
    def emit_hashes(
        servers: "list[ServerSession]", plan: HashPlan, cut: list[int]
    ) -> tuple[list[bytes], np.ndarray]:
        """Serialise one sub-phase's hash message of every lane at once.

        ``servers[i]`` owns plan rows ``cut[i]:cut[i + 1]``.  Returns each
        lane's message and its bit count; DERIVED rows send nothing.
        """
        full = np.zeros(plan.size, dtype=np.uint32)
        for server, lo, hi in zip(servers, cut, cut[1:]):
            if hi > lo:
                full[lo:hi] = server.prefix.block_pairs(
                    plan.starts[lo:hi], plan.lengths[lo:hi]
                )
        wire = plan.kinds != DERIVED
        widths = plan.widths[wire]
        lanes = np.repeat(np.arange(len(servers)), np.diff(cut))
        return pack_messages(
            pack_to_widths(full[wire], widths),
            widths,
            np.bincount(lanes[wire], minlength=len(servers)),
        )

    @staticmethod
    def verification_values(
        servers: "list[ServerSession]",
        units: list[tuple[int, list[tuple[int, int]]]],
        batch: BatchSpec,
    ) -> list[int]:
        """The hash each ``(lane, (start, length) regions)`` unit should carry."""
        return region_verification_values(servers, units, batch)

    # ------------------------------------------------------------------
    # Delta phase
    # ------------------------------------------------------------------
    def reference(self) -> bytes:
        """Reference string: confirmed regions in target order."""
        regions = sorted(self.tracker.confirmed_regions)
        return b"".join(self.data[start : start + length] for start, length in regions)

    def emit_delta(self) -> bytes:
        """Encode ``F_new`` against the common reference (zdelta)."""
        return zdelta_encode(self.reference(), self.data)
