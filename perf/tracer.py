"""Per-layer self time and call counts, recorded from outside the program.

``Tracer.install()`` wraps each layer's public functions and methods
(``LAYERS``) in a span that times the call and counts it; the program's
source is not touched.  A span's *self* time is its duration minus the
time of the spans nested inside it, so self times add up to at most the
wall time of the traced update, and the rest is time spent outside every
listed function.

A module-level function is bound by name in every module that imported
it (``file_fingerprint`` in more than a dozen), so the tracer replaces
every module global that *is* the target.  It fails if a target does not
exist, so a renamed function cannot silently drop out of the breakdown.
Methods are replaced on the class that defines them, which subclasses
and ``super()`` calls then reach too.  Spans assume a single thread: the
benchmark syncs serially (``workers=1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (layer, module, qualified name) of every traced function.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("core.plan", "repro.core.planning", "plan_continuation"),
    ("core.plan", "repro.core.planning", "plan_global"),
    ("core.plan", "repro.core.planning", "plan_mixed"),
    ("core.advance_level", "repro.core.blocks", "BlockTracker.advance_level"),
    ("core.process_hashes", "repro.core.client", "ClientSession.process_hashes"),
    ("core.emit_hashes", "repro.core.server", "ServerSession.emit_hashes"),
    ("core.verify", "repro.core.client", "ClientSession.verification_values"),
    ("core.verify", "repro.core.server", "ServerSession.verification_values"),
    ("core.round", "repro.core.protocol", "CoreSyncSession.step_round"),
    ("core.handshake", "repro.core.protocol", "CoreSyncSession.start"),
    ("core.finish", "repro.core.protocol", "CoreSyncSession.finish"),
    ("core.emit_delta", "repro.core.server", "ServerSession.emit_delta"),
    ("core.apply_delta", "repro.core.client", "ClientSession.apply_delta"),
    ("core.session_setup", "repro.core.protocol", "CoreSyncSession.__init__"),
    ("hashing.hasher_init", "repro.hashing.decomposable", "DecomposableAdler.__init__"),
    ("hashing.fingerprint", "repro.hashing.strong", "file_fingerprint"),
    ("delta.index_build", "repro.delta.matcher", "ReferenceMatcher.__init__"),
    ("delta.match", "repro.delta.matcher", "compute_instructions"),
    ("delta.encode", "repro.delta.encoder", "zdelta_encode"),
    ("delta.decode", "repro.delta.encoder", "zdelta_decode"),
    ("reuse.serve", "repro.reuse.broadcast", "BroadcastDeltaServer.serve"),
    ("reuse.sketch", "repro.reuse.similarity", "SimilarityIndex.signature_of"),
    ("reuse.similar", "repro.reuse.similarity", "SimilarityIndex.best_reference"),
    ("reuse.dedup_ingest", "repro.reuse.dedup", "DedupStore.ingest"),
    ("pipeline.schedule", "repro.collection.pipeline", "CollectionScheduler.run"),
    ("net.mux_encode", "repro.net.frame", "encode_mux_batch"),
    ("net.mux_decode", "repro.net.frame", "decode_mux_batch"),
    ("collection.manifest", "repro.collection.manifest", "Manifest.of_collection"),
    ("collection.diff", "repro.collection.manifest", "diff_manifests"),
    (
        "collection.store_write",
        "repro.collection.store",
        "CollectionStore.write_collection",
    ),
    ("collection.sync", "repro.collection.sync", "sync_collection"),
    ("parallel.dispatch", "repro.parallel.executor", "SyncExecutor.run"),
    ("net.send", "repro.net.channel", "SimulatedChannel.send"),
)


def layer_names() -> list[str]:
    """Every layer, once, in ``LAYERS`` order."""
    return list(dict.fromkeys(layer for layer, _module, _name in LAYERS))


class Tracer:
    """Installs layer spans; accumulates self seconds and calls per layer."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Places each target was replaced, per (module, qualified name).
        self.patched: dict[tuple[str, str], int] = {}
        # Child-span seconds of each open span; the bottom entry collects
        # the top-level spans.
        self._children = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, layer: str, function):
        clock = time.perf_counter
        children = self._children
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(function)
        def span(*args, **kwargs):
            children.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - children.pop()
                children[-1] += elapsed
                calls[layer] += 1

        return span

    def install(self) -> None:
        """Wrap every target; raises ``LookupError`` if one is missing."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.patched = {}
        functions: dict[int, tuple[object, object, tuple[str, str]]] = {}
        try:
            for layer, module_name, qualname in self.layers:
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                key = (module_name, qualname)
                if not owner_name:
                    function = getattr(module, attribute, None)
                    if not callable(function):
                        raise LookupError(f"{module_name}.{qualname} not found")
                    functions[id(function)] = (
                        function,
                        self._span(layer, function),
                        key,
                    )
                    continue
                owner = getattr(module, owner_name)
                raw = owner.__dict__.get(attribute)
                if raw is None:
                    raise LookupError(f"{module_name}.{qualname} not found")
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._span(layer, raw.__func__))
                else:
                    wrapped = self._span(layer, raw)
                setattr(owner, attribute, wrapped)
                self._undo.append((owner, attribute, raw))
                self.patched[key] = 1
            self._replace_globals(functions)
        except BaseException:
            self.uninstall()
            raise

    def _replace_globals(self, functions) -> None:
        """Rebind every module global that is one of ``functions``."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[name] = entry[1]
                    self._undo.append((namespace, name, value))
                    self.patched[entry[2]] = self.patched.get(entry[2], 0) + 1

    def uninstall(self) -> None:
        """Put every original function back, in reverse order."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
