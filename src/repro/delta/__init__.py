"""Delta compression: encode one file relative to a similar reference file.

This package provides the second phase of the paper's framework (encoding
the unknown regions of ``F_new`` against the confirmed common regions) and
the two local delta-compressor baselines of the evaluation:

* :func:`zdelta_encode` / :func:`zdelta_decode` — a zdelta-like coder with
  separate instruction and literal streams, each entropy-coded with zlib.
* :func:`vcdiff_encode` / :func:`vcdiff_decode` — a simplified VCDIFF-style
  coder (single interleaved stream), the slightly weaker second baseline.

Both share the greedy hash-chain matcher in :mod:`repro.delta.matcher`.
"""

from repro.delta.instructions import Add, Copy, Instruction, apply_instructions
from repro.delta.matcher import ReferenceMatcher, compute_instructions
from repro.delta.encoder import zdelta_decode, zdelta_encode, zdelta_size
from repro.delta.vcdiff import vcdiff_decode, vcdiff_encode, vcdiff_size

__all__ = [
    "Add",
    "Copy",
    "Instruction",
    "ReferenceMatcher",
    "apply_instructions",
    "compute_instructions",
    "vcdiff_decode",
    "vcdiff_encode",
    "vcdiff_size",
    "zdelta_decode",
    "zdelta_encode",
    "zdelta_size",
]
