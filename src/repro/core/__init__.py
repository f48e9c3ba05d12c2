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
from repro.core.blocks import Block, BlockStatus, BlockTracker, HashKind
from repro.core.client import ClientSession
from repro.core.config import ProtocolConfig
from repro.core.engine import ENGINE_ENV, ENGINES, default_engine, resolve_engine
from repro.core.filemap import FileMap, MatchEntry
from repro.core.protocol import CoreSyncSession, SyncResult, synchronize
from repro.core.server import ServerSession

__all__ = [
    "BroadcastReport",
    "synchronize_broadcast",
    "Block",
    "ProbeResult",
    "adaptive_synchronize",
    "choose_config",
    "probe_similarity",
    "BlockStatus",
    "BlockTracker",
    "ClientSession",
    "CoreSyncSession",
    "ENGINES",
    "ENGINE_ENV",
    "default_engine",
    "resolve_engine",
    "FileMap",
    "HashKind",
    "MatchEntry",
    "ProtocolConfig",
    "ServerSession",
    "SyncResult",
    "synchronize",
]
