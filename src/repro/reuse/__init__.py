"""Cross-file delta reuse: dedup store, delta memo, sibling references.

The server-side reuse layer (DESIGN §17) that amortizes one update's
computation across many clients and many similar files:

* :class:`~repro.reuse.dedup.DedupStore` — content-addressed
  ``fingerprint -> canonical blob`` view, so identical bytes across
  names and versions are stored and indexed once;
* :class:`~repro.reuse.memo.DeltaMemoCache` — memoized instruction
  lists and encoded payloads keyed by content pair, byte-identical to
  fresh computation (wall-clock only, never wire bytes);
* :class:`~repro.reuse.similarity.SimilarityIndex` — min-hash over
  content-defined shingles with LSH-band candidate lookup, picking the
  best sibling reference when no previous version exists;
* :class:`~repro.reuse.broadcast.BroadcastDeltaServer` — ties the three
  together to serve one update to a fleet of stale replicas.
"""

from repro.reuse.broadcast import (
    BroadcastDeltaServer,
    ClientUpdate,
    FileDecision,
)
from repro.reuse.dedup import DedupStore
from repro.reuse.memo import (
    DEFAULT_MEMO_BYTES,
    DEFAULT_MEMO_ENTRIES,
    DeltaMemoCache,
    default_delta_memo,
    reset_default_delta_memo,
)
from repro.reuse.similarity import (
    DEFAULT_BANDS,
    DEFAULT_RESEMBLANCE_THRESHOLD,
    SimilarityIndex,
)
from repro.reuse.sketch import (
    DEFAULT_MASK_BITS,
    DEFAULT_NUM_PERM,
    DEFAULT_WINDOW,
    MinHashSketch,
    content_shingles,
    estimate_resemblance,
    minhash_signature,
    sketch,
)

__all__ = [
    "BroadcastDeltaServer",
    "ClientUpdate",
    "DEFAULT_BANDS",
    "DEFAULT_MASK_BITS",
    "DEFAULT_MEMO_BYTES",
    "DEFAULT_MEMO_ENTRIES",
    "DEFAULT_NUM_PERM",
    "DEFAULT_RESEMBLANCE_THRESHOLD",
    "DEFAULT_WINDOW",
    "DedupStore",
    "DeltaMemoCache",
    "FileDecision",
    "MinHashSketch",
    "SimilarityIndex",
    "content_shingles",
    "default_delta_memo",
    "estimate_resemblance",
    "minhash_signature",
    "reset_default_delta_memo",
    "sketch",
]
