"""Uniform wrappers around every synchronization method under evaluation."""

from __future__ import annotations

import zlib

from repro.core import ProtocolConfig
from repro.delta import vcdiff_size, zdelta_size
from repro.lanes import run_lane
from repro.rsync import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_SEARCH_BLOCK_SIZES,
    rsync_optimal,
    rsync_sync,
)
from repro.syncmethod import MethodOutcome, SyncMethod, wire_outcome

__all__ = [
    "AdaptiveMethod",
    "FullTransferMethod",
    "MethodOutcome",
    "MultiroundRsyncMethod",
    "OursMethod",
    "RsyncMethod",
    "RsyncOptimalMethod",
    "SyncMethod",
    "VcdiffMethod",
    "ZdeltaMethod",
    "standard_methods",
]


class _SessionMethod(SyncMethod):
    """A method with a step-wise session, configured by ``self.config``."""

    has_session = True
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return run_lane(self.lane(None, old, new))[0]

    def checkpoint_identity(self, old: bytes, new: bytes):
        from repro.hashing.strong import file_fingerprint
        from repro.resilience.checkpoint import SessionIdentity, config_digest

        return SessionIdentity(
            self.name,
            file_fingerprint(old),
            file_fingerprint(new),
            config_digest(self.config),
        )


class OursMethod(_SessionMethod):
    """The paper's multi-round protocol."""

    def __init__(self, config: ProtocolConfig | None = None, name: str = "ours") -> None:
        self.config = config or ProtocolConfig()
        self.name = name

    def open_session(self, old: bytes, new: bytes, checkpointer=None):
        from repro.core.protocol import CoreSyncSession

        return CoreSyncSession(old, new, self.config, checkpointer=checkpointer)


class RsyncMethod(SyncMethod):
    """rsync with a fixed block size (the tool's default by default)."""

    supports_pickle = True

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.block_size = block_size
        self.name = f"rsync(b={block_size})" if block_size != DEFAULT_BLOCK_SIZE else "rsync"

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return self.sync_file_over(old, new, None)

    def sync_file_over(self, old: bytes, new: bytes, channel) -> MethodOutcome:
        result = rsync_sync(
            old, new, block_size=self.block_size, channel=channel
        )
        return wire_outcome(result, new)


class RsyncOptimalMethod(SyncMethod):
    """Idealised rsync: per-file best block size (an oracle baseline)."""

    name = "rsync-opt"
    supports_pickle = True

    def __init__(self, block_sizes: tuple[int, ...] = DEFAULT_SEARCH_BLOCK_SIZES) -> None:
        self.block_sizes = block_sizes

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        result = rsync_optimal(old, new, block_sizes=self.block_sizes)
        return wire_outcome(result, new)


class MultiroundRsyncMethod(_SessionMethod):
    """Recursive splitting without the paper's refinements (Langford [25])."""

    name = "multiround"

    def __init__(self, config=None) -> None:
        from repro.multiround import MultiroundConfig

        self.config = config or MultiroundConfig()

    def open_session(self, old: bytes, new: bytes, checkpointer=None):
        from repro.multiround import MultiroundSession

        return MultiroundSession(old, new, self.config, checkpointer=checkpointer)


class AdaptiveMethod(SyncMethod):
    """The §7 adaptive tool: probe each file, then pick parameters for
    the link of the channel it runs over."""

    name = "ours-adaptive"

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return self.sync_file_over(old, new, None)

    def sync_file_over(self, old: bytes, new: bytes, channel) -> MethodOutcome:
        from repro.core import adaptive_synchronize

        result, _config = adaptive_synchronize(old, new, channel=channel)
        return wire_outcome(result, new)


class ZdeltaMethod(SyncMethod):
    """Local delta compression — the paper's practical lower bound."""

    name = "zdelta"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        size = zdelta_size(old, new)
        return MethodOutcome(
            total_bytes=size,
            server_to_client=size,
            breakdown={"s2c/delta": size},
        )


class VcdiffMethod(SyncMethod):
    """The second delta-compressor baseline."""

    name = "vcdiff"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        size = vcdiff_size(old, new)
        return MethodOutcome(
            total_bytes=size,
            server_to_client=size,
            breakdown={"s2c/delta": size},
        )


class FullTransferMethod(SyncMethod):
    """Send the new file compressed — what non-delta tools do."""

    name = "gzip-full"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        size = len(zlib.compress(new, 9))
        return MethodOutcome(
            total_bytes=size,
            server_to_client=size,
            breakdown={"s2c/full": size},
        )

    def sync_file_over(self, old: bytes, new: bytes, channel) -> MethodOutcome:
        if channel is None:
            return self.sync_file(old, new)
        from repro.net.metrics import Direction

        payload = zlib.compress(new, 9)
        channel.send(Direction.SERVER_TO_CLIENT, payload, "full")
        received = channel.receive(Direction.SERVER_TO_CLIENT)
        return MethodOutcome(
            total_bytes=len(payload),
            server_to_client=len(payload),
            breakdown={"s2c/full": len(payload)},
            correct=zlib.decompress(received) == new,
        )


def standard_methods(config: ProtocolConfig | None = None) -> list[SyncMethod]:
    """The comparison set used by most tables: ours vs all baselines."""
    return [
        OursMethod(config),
        RsyncMethod(),
        RsyncOptimalMethod(),
        ZdeltaMethod(),
        VcdiffMethod(),
        FullTransferMethod(),
    ]
