"""The benchmark's four workloads: one update each, and its byte check.

A workload is driven in three steps per update (see ``run.py``):

* ``prepare()`` -- start every cache cold and build the program-side
  state the update needs (a fresh store directory, a fresh broadcast
  server with its history ingested).  Timed, and reported in
  ``setup_s``, never in the update;
* ``run(state)`` -- the timed update itself: one call into the program;
* ``account(state, result)`` -- outside the timed section: compare every
  delivered file with the server side, byte for byte, and collect the
  wire accounting.  It relies on nothing the program says about its own
  correctness: fleet clients are checked by decoding what each was sent.
"""

from __future__ import annotations

import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from repro.bench.methods import OursMethod
from repro.collection.sync import sync_collection
from repro.core.protocol import synchronize
from repro.delta import zdelta_decode
from repro.exceptions import ReproError
from repro.hashing.strong import file_fingerprint
from repro.net.channel import LinkModel
from repro.parallel.cache import reset_default_cache, reset_default_reference_cache
from repro.reuse import BroadcastDeltaServer, DedupStore, DeltaMemoCache
from repro.reuse.memo import reset_default_delta_memo
from repro.syncmethod import wire_outcome

#: The paper's slow network: 1 Mbit/s, 150 ms one way.  The benchmark
#: charges every update's per-direction bytes and roundtrips to it.
LINK = LinkModel(1_000_000, latency_s=0.150)

PIPELINE_WINDOW = 8


@dataclass
class Update:
    """What one update delivered, what it cost, and what was wrong."""

    attempted: int
    failed: int
    wire_bytes: int
    up_bytes: int
    down_bytes: int
    roundtrips: int
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def link_s(self) -> float:
        return LINK.transfer_seconds(self.up_bytes, self.down_bytes, self.roundtrips)


@dataclass
class Caches:
    """The process-wide caches, replaced by fresh ones before an update."""

    hash_index: object
    reference: object
    delta_memo: object

    @classmethod
    def cold(cls) -> "Caches":
        return cls(
            reset_default_cache(),
            reset_default_reference_cache(),
            reset_default_delta_memo(),
        )

    def counters(self, workload: str) -> dict[str, float]:
        """Hit ratios of one update; it must have built its own indexes."""
        if self.reference.stats.misses == 0:
            raise RuntimeError(f"{workload}: update built no reference index")
        return {
            "parallel.hash_cache.hit_ratio": self.hash_index.stats.hit_rate,
            "parallel.ref_cache.hit_ratio": self.reference.stats.hit_rate,
            "reuse.memo.hit_ratio": self.delta_memo.stats.hit_rate,
        }


class ReceivingOurs(OursMethod):
    """The paper's protocol, keeping the bytes each client rebuilt.

    On the sequential path the collection report records the *server's*
    bytes for a changed file once the protocol says it is correct; the
    benchmark checks what the client actually reconstructed instead.  The
    pipelined scheduler reports the client's reconstruction itself and
    never calls this method, so ``received`` stays empty there.
    """

    def __init__(self) -> None:
        super().__init__()
        self.received: dict[str, bytes] = {}

    def sync_named_file(self, name, old, new):
        result = synchronize(old, new, self.config)
        self.received[name] = result.reconstructed
        return wire_outcome(result, new)


class CollectionWorkload:
    """An (old, new) collection pair, updated by one ``sync_collection``."""

    name = ""
    generate = None
    options: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.inputs = self.generate(seed)
        self.old, self.new = self.inputs
        self.new_bytes = sum(len(data) for data in self.new.values())
        self.ops_per_update = len(self.new)

    def prepare(self) -> dict:
        return {"caches": Caches.cold(), "method": ReceivingOurs()}

    def run(self, state: dict):
        return sync_collection(
            self.old,
            self.new,
            state["method"],
            store=state.get("store"),
            **self.options,
        )

    def wrong_files(self, state: dict, report) -> set[str]:
        """Names delivered with other bytes than the server's, or not at all."""
        delivered = dict(report.reconstructed)
        delivered.update(state["method"].received)
        wrong = {name for name in self.new if delivered.get(name) != self.new[name]}
        return wrong | (set(delivered) - set(self.new))

    def account(self, state: dict, report) -> Update:
        wrong = self.wrong_files(state, report)
        outcomes = report.per_file.values()
        return Update(
            attempted=len(self.new),
            failed=len(wrong),
            wire_bytes=report.total_bytes,
            up_bytes=sum(outcome.client_to_server for outcome in outcomes),
            down_bytes=sum(outcome.server_to_client for outcome in outcomes)
            + report.manifest_bytes
            + report.added_bytes
            + report.mux_overhead_bytes,
            roundtrips=report.roundtrips_on_wire,
            counters={
                **state["caches"].counters(self.name),
                "reuse.sibling_refs": report.sibling_refs_used,
                "pipeline.waves": report.waves,
            },
        )


class GccRelease(CollectionWorkload):
    name = "gcc-release"
    generate = staticmethod(inputs.gcc_release)

    def prepare(self) -> dict:
        state = super().prepare()
        state["store"] = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        return state

    def wrong_files(self, state: dict, report) -> set[str]:
        store = state["store"]
        on_disk = {
            path.relative_to(store).as_posix()
            for path in store.rglob("*")
            if path.is_file()
        }
        wrong = super().wrong_files(state, report) | (on_disk ^ set(self.new))
        return wrong | {
            name
            for name in set(self.new) & on_disk
            if (store / name).read_bytes() != self.new[name]
        }

    def account(self, state: dict, report) -> Update:
        try:
            return super().account(state, report)
        finally:
            shutil.rmtree(state["store"])


class BinaryChurn(CollectionWorkload):
    name = "binary-churn"
    generate = staticmethod(inputs.binary_churn)


class SlowLinkPipelined(CollectionWorkload):
    name = "slow-link-pipelined"
    generate = staticmethod(inputs.slow_link)
    options = {"pipeline": True, "window": PIPELINE_WINDOW, "link": LINK}


class RecordingMemo(DeltaMemoCache):
    """The broadcast server's delta memo, keeping every payload it hands
    out, so the check can decode what each client was sent."""

    def __init__(self) -> None:
        super().__init__()
        #: (coder, reference fingerprint, target fingerprint) -> payload.
        self.sent: dict[tuple[str, bytes, bytes], bytes] = {}

    def payload(self, coder, old_fingerprint, new_fingerprint, seed_length, build):
        payload = super().payload(
            coder, old_fingerprint, new_fingerprint, seed_length, build
        )
        self.sent[coder, old_fingerprint, new_fingerprint] = payload
        return payload


class FleetBroadcast:
    """A fleet of stale clients served by one broadcast server per update."""

    name = "fleet-broadcast"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.fleet = self.inputs = inputs.fleet(seed)
        self.new_bytes = sum(len(data) for data in self.fleet.server.values()) * len(
            self.fleet.clients
        )
        self.ops_per_update = len(self.fleet.clients)

    def prepare(self) -> dict:
        caches = Caches.cold()
        caches.delta_memo = RecordingMemo()
        server = BroadcastDeltaServer(
            self.fleet.server, memo=caches.delta_memo, dedup=DedupStore()
        )
        for version in self.fleet.versions[:-1]:
            server.ingest_history(version)
        return {"caches": caches, "server": server}

    def run(self, state: dict):
        return [state["server"].serve(client.files) for client in self.fleet.clients]

    def delivers(self, client_files: dict[str, bytes], update, sent) -> bool:
        """Whether decoding what the client was sent, against the files it
        holds, gives exactly the server's collection and the wire bytes
        the update claims.  The server's own decode-and-compare (and its
        skip of pairs it verified for an earlier client) is not used."""
        try:
            return self._delivers(client_files, update, sent)
        except (ReproError, zlib.error):
            return False

    def _delivers(self, client_files: dict[str, bytes], update, sent) -> bool:
        server = self.fleet.server
        decisions = {decision.name: decision for decision in update.decisions}
        if set(decisions) != set(server) or len(decisions) != len(update.decisions):
            return False
        for name, new in server.items():
            decision = decisions[name]
            if decision.action == "unchanged":
                payload, rebuilt = b"", client_files.get(name)
            elif decision.action == "full":
                target = file_fingerprint(new)
                payload = sent.get(("zlib", target, target), b"")
                rebuilt = zlib.decompress(payload) if payload else None
            else:
                reference = client_files.get(
                    name if decision.action == "self-delta" else decision.reference
                )
                if reference is None:
                    return False
                key = ("zdelta", file_fingerprint(reference), file_fingerprint(new))
                payload = sent.get(key, b"")
                rebuilt = zdelta_decode(reference, payload) if payload else None
            if rebuilt != new or decision.wire_bytes != len(payload):
                return False
        return True

    def account(self, state: dict, updates) -> Update:
        sent = state["caches"].delta_memo.sent
        wire = sum(update.wire_bytes for update in updates)
        return Update(
            attempted=len(updates),
            failed=sum(
                not self.delivers(client.files, update, sent)
                for client, update in zip(self.fleet.clients, updates)
            ),
            wire_bytes=wire,
            up_bytes=0,
            down_bytes=wire,
            roundtrips=len(updates),
            counters={
                **state["caches"].counters(self.name),
                "reuse.sibling_refs": sum(update.sibling_refs_used for update in updates),
                "pipeline.waves": 0,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (GccRelease, BinaryChurn, SlowLinkPipelined, FleetBroadcast)
}
