"""The paper's contribution: multi-round map construction + delta.

Public entry point: :func:`synchronize`, configured by
:class:`ProtocolConfig`.  See DESIGN.md for the technique inventory
(recursive splitting, optimized group-testing verification, continuation
and local hashes, decomposable hash suppression).
"""

from repro.core.adaptive import (
    ProbeResult,
    adaptive_synchronize,
    choose_config,
    probe_similarity,
)
from repro.core.broadcast import BroadcastReport, synchronize_broadcast
from repro.core.blocks import BlockTracker, HashKind
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.filemap import FileMap, MatchEntry
from repro.core.protocol import CoreSyncSession, SyncResult, synchronize
from repro.core.server import ServerSession

__all__ = [
    "BroadcastReport",
    "synchronize_broadcast",
    "ProbeResult",
    "adaptive_synchronize",
    "choose_config",
    "probe_similarity",
    "BlockTracker",
    "ClientSession",
    "CoreSyncSession",
    "FileMap",
    "HashKind",
    "MatchEntry",
    "ProtocolConfig",
    "ServerSession",
    "SyncResult",
    "synchronize",
]
