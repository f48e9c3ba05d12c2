"""LSH-banded similarity index over min-hash sketches (DESIGN §17).

Maps every registered name to its min-hash signature and buckets the
signature's bands so candidate lookup is a handful of dict probes
instead of a scan over the whole collection.  Two files landing in the
same bucket for *any* band are candidates; exact signature agreement
then ranks them, and :meth:`SimilarityIndex.best_reference` returns the
best candidate clearing a resemblance threshold — the sibling-reference
selector used when a client's file has no previous version to delta
against.
"""

from __future__ import annotations

import numpy as np

from repro.reuse.sketch import NUM_PERM, estimate_resemblance, sketch

#: Number of LSH bands; each band is ``NUM_PERM // BANDS`` slots.
BANDS = 16
_ROWS = NUM_PERM // BANDS

#: Default resemblance a sibling must clear to serve as a reference.
DEFAULT_RESEMBLANCE_THRESHOLD = 0.5


class SimilarityIndex:
    """Banded min-hash index: add named blobs, look up similar ones."""

    def __init__(self) -> None:
        self._signatures: dict[str, np.ndarray] = {}
        self._buckets: dict[tuple[int, bytes], set[str]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def signature_of(self, data: bytes) -> np.ndarray:
        """Min-hash signature of raw bytes."""
        return sketch(data).signature

    def _band_keys(self, signature: np.ndarray):
        for band in range(BANDS):
            yield (
                band,
                signature[band * _ROWS : (band + 1) * _ROWS].tobytes(),
            )

    def add(
        self,
        name: str,
        data: bytes | None = None,
        signature: np.ndarray | None = None,
    ) -> np.ndarray:
        """Register ``name`` under its signature (computed unless given)."""
        if signature is None:
            if data is None:
                raise ValueError("add() needs data or a precomputed signature")
            signature = self.signature_of(data)
        if signature.size != NUM_PERM:
            raise ValueError(
                f"signature width {signature.size} != NUM_PERM {NUM_PERM}"
            )
        self.discard(name)
        self._signatures[name] = signature
        for key in self._band_keys(signature):
            self._buckets.setdefault(key, set()).add(name)
        return signature

    def discard(self, name: str) -> None:
        """Forget ``name`` (no-op when absent)."""
        signature = self._signatures.pop(name, None)
        if signature is None:
            return
        for key in self._band_keys(signature):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._buckets[key]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def candidates(self, signature: np.ndarray) -> set[str]:
        """Names sharing at least one band bucket with ``signature``."""
        found: set[str] = set()
        for key in self._band_keys(signature):
            bucket = self._buckets.get(key)
            if bucket:
                found |= bucket
        return found

    def best_reference(
        self,
        data: bytes | None = None,
        signature: np.ndarray | None = None,
        threshold: float = DEFAULT_RESEMBLANCE_THRESHOLD,
        exclude: frozenset[str] | set[str] | tuple[str, ...] = (),
    ) -> tuple[str, float] | None:
        """Best registered sibling clearing ``threshold``, or ``None``.

        Deterministic: ties on estimated resemblance break on the
        lexicographically smallest name.
        """
        if signature is None:
            if data is None:
                raise ValueError(
                    "best_reference() needs data or a precomputed signature"
                )
            signature = self.signature_of(data)
        best: tuple[float, str] | None = None
        for name in self.candidates(signature):
            if name in exclude:
                continue
            resemblance = estimate_resemblance(
                signature, self._signatures[name]
            )
            if resemblance < threshold:
                continue
            ranked = (-resemblance, name)
            if best is None or ranked < best:
                best = ranked
        if best is None:
            return None
        return best[1], -best[0]

    def signature_for(self, name: str) -> np.ndarray:
        return self._signatures[name]

    def __contains__(self, name: str) -> bool:
        return name in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)
