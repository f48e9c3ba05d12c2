"""The rsync algorithm of Tridgell & MacKerras — the paper's main baseline.

The client splits its outdated file into fixed-size blocks and sends, for
each block, a 4-byte rolling checksum plus a truncated strong hash.  The
server slides a window over the current file, matching against the received
signatures at *every* offset, and replies with a compressed stream of
literals and block references from which the client reconstructs the
current file.

:func:`rsync_sync` runs the whole exchange over a
:class:`~repro.net.SimulatedChannel`; :func:`rsync_optimal` additionally
searches for the per-file best block size (the idealised baseline the paper
plots alongside the default block size).
"""

from repro.rsync.optimal import DEFAULT_SEARCH_BLOCK_SIZES, rsync_optimal
from repro.rsync.protocol import DEFAULT_BLOCK_SIZE, RsyncResult, rsync_sync
from repro.rsync.signature import BlockSignature, compute_signatures
from repro.rsync.matcher import Literal, Reference, Token, match_tokens

__all__ = [
    "BlockSignature",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_SEARCH_BLOCK_SIZES",
    "Literal",
    "Reference",
    "RsyncResult",
    "Token",
    "compute_signatures",
    "match_tokens",
    "rsync_optimal",
    "rsync_sync",
]
