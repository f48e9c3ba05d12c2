"""Memoized delta computation keyed by content fingerprints (DESIGN §17).

One server pushing an update to many stale replicas computes the same
``(old, new)`` delta over and over — once per client at the same
staleness.  :class:`DeltaMemoCache` memoizes the finished artifacts
(instruction lists and encoded payloads) keyed by the *content* of both
sides plus the coder parameters, so the 2nd..Nth identical request is a
dict hit instead of a matcher run.

Byte-identity guarantee: keys are ``(old fingerprint, new fingerprint,
method, params)``.  Which scan produced a list is not part of the key:
both scans emit identical instruction streams (the per-position scan is
the parity reference), and the cached-vs-cold parity tests pin that
equivalence.  A memo hit therefore changes wall-clock
only, never a single wire byte.

One tier is memoized by itself: the size probes ``zdelta_size`` /
``vcdiff_size`` always go through the process-wide memo
(:func:`default_delta_memo`).  They are pure measurements (the runner's
method-comparison grid), so caching them is safe and free of benchmark
distortion.  ``compute_instructions`` / ``zdelta_encode`` /
``vcdiff_encode`` consult a memo only when the caller hands one in
(``memo=``, as :class:`~repro.reuse.broadcast.BroadcastDeltaServer`
does for the one-server-many-clients case) and compute cold otherwise.

Like the hash-index caches, the memo is process-local: pool workers
inherit the parent's by fork and their hit/miss deltas are folded back
by the executor.
"""

from __future__ import annotations

from repro.parallel.cache import ContentKeyedCache

#: Default entry budget of the memo cache.
DEFAULT_MEMO_ENTRIES = 512

#: Default byte budget: memoized payloads and instruction lists are
#: small next to the reference indexes, but a fleet of large files could
#: still pile up — 64 MiB bounds the worst case.
DEFAULT_MEMO_BYTES = 64 * 1024 * 1024


class DeltaMemoCache(ContentKeyedCache):
    """LRU memo of finished delta artifacts, keyed by content identity.

    Entries are frozen-instruction lists (:class:`~repro.delta.Copy` /
    :class:`~repro.delta.Add` are frozen dataclasses) or immutable
    ``bytes`` payloads, so sharing them between sessions is safe.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MEMO_ENTRIES,
        max_bytes: int | None = DEFAULT_MEMO_BYTES,
    ) -> None:
        super().__init__(max_entries, max_bytes=max_bytes)

    @staticmethod
    def _entry_bytes(entry: object) -> int:
        if isinstance(entry, bytes):
            return len(entry)
        if isinstance(entry, list):
            # Instruction list: count the literal bytes plus a nominal
            # per-instruction overhead for the dataclass objects.
            total = 48 * len(entry)
            for instruction in entry:
                data = getattr(instruction, "data", b"")
                total += len(data)
            return total
        return ContentKeyedCache._entry_bytes(entry)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def instructions(
        self,
        old_fingerprint: bytes,
        new_fingerprint: bytes,
        seed_length: int,
        min_match: int,
        build,
    ) -> list:
        """Memoized COPY/ADD instruction list for one content pair."""
        key = (
            "instr",
            old_fingerprint,
            new_fingerprint,
            seed_length,
            min_match,
        )
        return self._get_or_build(key, build)

    def payload(
        self,
        coder: str,
        old_fingerprint: bytes,
        new_fingerprint: bytes,
        seed_length: int,
        build,
    ) -> bytes:
        """Memoized encoded delta payload (``coder`` = zdelta/vcdiff)."""
        key = (coder, old_fingerprint, new_fingerprint, seed_length)
        return self._get_or_build(key, build)


_default_memo = DeltaMemoCache()


def default_delta_memo() -> DeltaMemoCache:
    """The process-wide memo the size probes consult."""
    return _default_memo


def reset_default_delta_memo(
    max_entries: int | None = None,
    max_bytes: int | None = DEFAULT_MEMO_BYTES,
) -> DeltaMemoCache:
    """Replace the process-wide memo (tests, budget tuning)."""
    global _default_memo
    _default_memo = DeltaMemoCache(
        max_entries if max_entries is not None else DEFAULT_MEMO_ENTRIES,
        max_bytes=max_bytes,
    )
    return _default_memo

