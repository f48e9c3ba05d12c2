"""Hash functions for remote file synchronization.

The paper's protocol relies on two families of hashes:

* A **decomposable** rolling hash (:mod:`repro.hashing.decomposable`), the
  paper's modified Adler checksum.  It slides a window by one byte in
  constant time, so a transmitted block hash can be compared against
  *every* position of the local file; the hash of a parent block can be
  combined from its two children and, crucially, a child's hash can be
  recovered from the parent's and the sibling's.  This halves the number of
  hashes the server must transmit during recursive splitting.
  :meth:`DecomposableAdler.identity` (no byte substitution) is rsync's
  plain Adler checksum (§2.2), used for its block signatures and its
  sliding-window match.
* **Strong hashes** (:mod:`repro.hashing.strong`) used for match
  verification and whole-file integrity checks.

:mod:`repro.hashing.scan` provides numpy-vectorised computation of the
decomposable hash over all windows of a file plus a position index for
candidate lookup; this is what makes a pure-Python reproduction fast enough
to benchmark honestly.
"""

from repro.hashing.decomposable import DecomposableAdler, HashPair
from repro.hashing.scan import (
    HashIndex,
    PrefixHasher,
    PrefixSums,
    prefix_sums,
    window_hashes,
    window_hashes_from_sums,
)
from repro.hashing.strong import (
    StrongHasher,
    file_fingerprint,
    group_digest,
    strong_digest,
)

__all__ = [
    "DecomposableAdler",
    "HashIndex",
    "HashPair",
    "PrefixHasher",
    "PrefixSums",
    "prefix_sums",
    "StrongHasher",
    "file_fingerprint",
    "group_digest",
    "strong_digest",
    "window_hashes",
    "window_hashes_from_sums",
]
