"""Ratio baselines for the perf-regression gate (``test_perf_baseline.py``).

The paper's closing note (§6.2) concedes the prototype "runs at a speed
of up to a few MB of raw data per second" — CPU throughput, not wire
bytes, is the deployment bottleneck.  The absolute end-to-end number
comes from ``perf/run.py``; this module holds the five seeded
measurements whose records are committed at the repo root:

* :func:`measure` → ``BENCH_parallel.json``: the core substrate ops
  (window-hash scan, rsync token matching, zdelta encoding) and the
  collection executor's pickle dispatch;
* :func:`measure_delta` → ``BENCH_delta.json``: the chunked delta scan
  against the ``_scan_scalar`` loop, the parity oracle no product path
  calls;
* :func:`measure_protocol` → ``BENCH_protocol.json``: end-to-end core
  protocol throughput;
* :func:`measure_pipeline` → ``BENCH_pipeline.json``: pipelined against
  sequential modelled link wall clock;
* :func:`measure_reuse` → ``BENCH_reuse.json``: warm against cold fleet
  serving, and the wire bytes sibling references save.

The executor measurement uses a fingerprint *probe* method — it MD5s
both payloads and nothing else — so the number isolates the dispatch
substrate itself (serialization, page traffic, scheduling) rather than
protocol compute.  Timings are best-of-``rounds`` wall clock, the
steady-state figure of a warm process.

Baselines are machine-specific: compare runs against a baseline recorded
on comparable hardware and use a generous tolerance in CI (the committed
files record the reference machine's numbers).  Each gate run writes its
measurement to ``benchmarks/results/BENCH_*.current.json``; re-record a
baseline by copying that file over the committed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.syncmethod import MethodOutcome, SyncMethod

#: Format marker for BENCH_parallel.json / BENCH_delta.json.
SCHEMA_VERSION = 1

#: Repo-root baseline file name (the committed trajectory point).
DEFAULT_BASELINE_NAME = "BENCH_parallel.json"

#: Committed baseline for the delta-encode throughput gate.
DEFAULT_DELTA_BASELINE_NAME = "BENCH_delta.json"

#: Committed baseline for the protocol-engine throughput gate.
DEFAULT_PROTOCOL_BASELINE_NAME = "BENCH_protocol.json"

#: Committed baseline for the pipelined-scheduler latency gate.
DEFAULT_PIPELINE_BASELINE_NAME = "BENCH_pipeline.json"

#: Committed baseline for the cross-file reuse gate (DESIGN §17).
DEFAULT_REUSE_BASELINE_NAME = "BENCH_reuse.json"

#: Seeded workload defaults: 64 changed files, ~48 MB of payload.
DEFAULT_FILES = 64
DEFAULT_FILE_KB = 384
DEFAULT_WORKERS = 4
DEFAULT_ROUNDS = 3
DEFAULT_SEED = 20240806

#: Delta-throughput workload defaults: 64 reference/target pairs whose
#: targets interleave copied and novel regions (the profile where the
#: per-byte scalar loop is the bottleneck — see DESIGN §12).
DEFAULT_DELTA_FILE_KB = 96
#: Files the scalar oracle is timed on.  MB/s normalises by payload, so
#: a subset keeps the (much slower) scalar measurement CI-affordable
#: while the vectorized engine is timed on the full workload.
DEFAULT_SCALAR_FILES = 4

#: End-to-end protocol runs are expensive (a full multi-round sync per
#: file), so the protocol gate times a single cold-cache pass.
DEFAULT_PROTOCOL_ROUNDS = 1

#: Pipeline-latency workload: 64 small changed files over a 300 ms-RTT
#: link.  The gate compares *modelled* link wall clock (bytes plus
#: latency times direction reversals) so the number is machine-independent
#: — small files keep the protocol compute CI-affordable.
DEFAULT_PIPELINE_FILE_KB = 24
DEFAULT_PIPELINE_WINDOW = 8
DEFAULT_PIPELINE_LATENCY_S = 0.150

#: Cross-file reuse workload: an 8-client fleet at mixed staleness
#: pulling one ~24 KB-mean-file collection.  The gate compares the cold
#: (fresh memo) and warm (fleet-primed memo) wall clock of serving the
#: last client, plus total fleet wire bytes with and without sibling
#: references.
DEFAULT_REUSE_CLIENTS = 8
DEFAULT_REUSE_FILES = 12
DEFAULT_REUSE_VERSIONS = 4
DEFAULT_REUSE_FILE_KB = 24


class FingerprintProbeMethod(SyncMethod):
    """Reads every payload byte (MD5) and does nothing else.

    The cheapest *honest* per-file method: every byte of ``old`` and
    ``new`` is touched exactly once, so executor timings measure the
    dispatch substrate, not protocol compute.
    """

    name = "fingerprint-probe"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        digest_bytes = len(hashlib.md5(old).digest()) + len(
            hashlib.md5(new).digest()
        )
        return MethodOutcome(
            total_bytes=digest_bytes,
            server_to_client=digest_bytes,
            breakdown={"s2c/probe": digest_bytes},
        )


@dataclass
class OpTiming:
    """Best-of-rounds timing of one substrate operation."""

    name: str
    seconds: float
    payload_bytes: int
    rounds: int

    @property
    def mb_per_s(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.payload_bytes / self.seconds / 1e6

    def to_row(self) -> dict[str, object]:
        return {
            "seconds": round(self.seconds, 6),
            "mb_per_s": round(self.mb_per_s, 3),
            "payload_bytes": self.payload_bytes,
            "rounds": self.rounds,
        }

    @classmethod
    def from_row(cls, name: str, row: dict) -> "OpTiming":
        return cls(
            name=name,
            seconds=float(row["seconds"]),
            payload_bytes=int(row["payload_bytes"]),
            rounds=int(row.get("rounds", 1)),
        )


@dataclass
class PerfBaseline:
    """One full measurement of the substrate (the BENCH_parallel row)."""

    workload: dict[str, int]
    ops: dict[str, OpTiming]
    environment: dict[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def delta_speedup(self) -> float:
        """Delta-match speedup: vectorized MB/s over scalar MB/s.

        Throughput-based (not raw seconds) because the scalar oracle is
        timed on a payload subset of the same workload.
        """
        scalar_op = self.ops.get("delta_match_scalar")
        vector_op = self.ops.get("delta_match_vectorized")
        if scalar_op is None or vector_op is None or scalar_op.mb_per_s <= 0:
            return 0.0
        return vector_op.mb_per_s / scalar_op.mb_per_s

    @property
    def pipeline_speedup(self) -> float:
        """Latency-hiding factor: sequential link wall clock / pipelined.

        Both ops record *modelled* link wall clock on the same workload
        and link, so the ratio is deterministic and machine-independent.
        """
        sequential_op = self.ops.get("collection_sequential")
        pipelined_op = self.ops.get("collection_pipelined")
        if (
            sequential_op is None
            or pipelined_op is None
            or pipelined_op.seconds <= 0
        ):
            return 0.0
        return sequential_op.seconds / pipelined_op.seconds

    @property
    def reuse_speedup(self) -> float:
        """Nth-client memo speedup: cold serve wall clock / warm.

        Both ops serve the *same* client's update from the same fleet
        workload; the only difference is whether the delta memo cache
        was primed by the rest of the fleet first.
        """
        cold_op = self.ops.get("broadcast_cold_client")
        warm_op = self.ops.get("broadcast_warm_client")
        if cold_op is None or warm_op is None or warm_op.seconds <= 0:
            return 0.0
        return cold_op.seconds / warm_op.seconds

    @property
    def sibling_wire_savings(self) -> float:
        """Fleet wire-byte fraction saved by sibling references.

        Deterministic: both ops record total fleet wire bytes (as their
        payload) on the same workload, with the sibling path on and off.
        Like every fleet number it assumes the server holds each client
        version it deltas against (see :func:`measure_reuse`).
        """
        full_op = self.ops.get("broadcast_wire_full")
        sibling_op = self.ops.get("broadcast_wire_sibling")
        if full_op is None or sibling_op is None or full_op.payload_bytes <= 0:
            return 0.0
        return 1.0 - sibling_op.payload_bytes / full_op.payload_bytes

    def to_json(self) -> str:
        derived: dict[str, float] = {}
        if self.delta_speedup:
            derived["delta_vectorized_speedup"] = round(self.delta_speedup, 3)
        if self.pipeline_speedup:
            derived["pipeline_latency_speedup"] = round(
                self.pipeline_speedup, 3
            )
        if self.reuse_speedup:
            derived["reuse_memo_speedup"] = round(self.reuse_speedup, 3)
        if self.sibling_wire_savings:
            derived["sibling_wire_savings"] = round(
                self.sibling_wire_savings, 4
            )
        payload = {
            "schema": self.schema,
            "workload": dict(self.workload),
            "environment": dict(self.environment),
            "ops": {name: op.to_row() for name, op in sorted(self.ops.items())},
            "derived": derived,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PerfBaseline":
        payload = json.loads(text)
        return cls(
            schema=int(payload.get("schema", 0)),
            workload={k: int(v) for k, v in payload["workload"].items()},
            environment=dict(payload.get("environment", {})),
            ops={
                name: OpTiming.from_row(name, row)
                for name, row in payload["ops"].items()
            },
        )


def save_baseline(baseline: PerfBaseline, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(baseline.to_json())
    return path


def load_baseline(path: str | Path) -> PerfBaseline:
    return PerfBaseline.from_json(Path(path).read_text())


def compare_baselines(
    current: PerfBaseline,
    committed: PerfBaseline,
    tolerance: float,
) -> list[str]:
    """Regression report: ops slower than ``committed * (1 + tolerance)``.

    Returns human-readable findings (empty = no regression).  Ops present
    only on one side are skipped — the baseline schema may grow.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    findings: list[str] = []
    for name, committed_op in sorted(committed.ops.items()):
        current_op = current.ops.get(name)
        if current_op is None or committed_op.seconds <= 0:
            continue
        budget = committed_op.seconds * (1.0 + tolerance)
        if current_op.seconds > budget:
            findings.append(
                f"{name}: {current_op.seconds:.4f}s exceeds "
                f"{committed_op.seconds:.4f}s baseline "
                f"(+{tolerance:.0%} budget = {budget:.4f}s)"
            )
    return findings


# ----------------------------------------------------------------------
# Workload construction (seeded, deterministic)
# ----------------------------------------------------------------------
def build_workload(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_FILE_KB,
    edits: int = 12,
    seed: int = DEFAULT_SEED,
) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """``files`` distinct pseudo-random file pairs, every file changed."""
    rng = random.Random(seed)
    size = file_kb * 1024
    old_side: dict[str, bytes] = {}
    new_side: dict[str, bytes] = {}
    for index in range(files):
        old = rng.randbytes(size)
        new = bytearray(old)
        for _ in range(edits):
            at = rng.randrange(max(1, size - 256))
            new[at : at + 64] = rng.randbytes(96)
        name = f"f{index:03d}.bin"
        old_side[name] = old
        new_side[name] = bytes(new)
    return old_side, new_side


def build_delta_workload(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_DELTA_FILE_KB,
    seed: int = DEFAULT_SEED,
) -> list[tuple[bytes, bytes]]:
    """``files`` reference/target pairs with interleaved shared and novel runs.

    Each target alternates copied reference regions (2–8 KB, what real
    version chains share) with novel random runs (1–4 KB, what the
    matcher must emit as literals) — roughly 40% novel bytes overall.
    Novel runs are where the scalar loop pays two binary searches per
    byte, so this is the profile the delta-throughput gate watches.
    """
    rng = random.Random(seed)
    size = file_kb * 1024
    pairs: list[tuple[bytes, bytes]] = []
    for _ in range(files):
        reference = rng.randbytes(size)
        target = bytearray()
        position = 0
        while position < size:
            copy_length = rng.randrange(2048, 8192)
            target += reference[position : position + copy_length]
            position += copy_length
            target += rng.randbytes(rng.randrange(1024, 4096))
        pairs.append((reference, bytes(target)))
    return pairs


def _best_of(rounds: int, run) -> float:
    best = float("inf")
    for _ in range(max(1, rounds)):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_FILE_KB,
    workers: int = DEFAULT_WORKERS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> PerfBaseline:
    """Time every substrate op on the seeded workload; return the record.

    End-to-end protocol throughput is *not* measured here: the dedicated
    per-engine gate (:func:`measure_protocol` / BENCH_protocol.json)
    superseded the old single-engine ``protocol_sync`` op.
    """
    from repro.delta import zdelta_encode
    from repro.hashing import DecomposableAdler, window_hashes
    from repro.parallel import FileTask, SyncExecutor
    from repro.rsync import compute_signatures, match_tokens

    old_side, new_side = build_workload(files=files, file_kb=file_kb, seed=seed)
    tasks = [
        FileTask(name, old_side[name], new_side[name]) for name in old_side
    ]
    payload = sum(task.total_bytes for task in tasks)
    ops: dict[str, OpTiming] = {}

    def record(name: str, seconds: float, nbytes: int, used_rounds: int) -> None:
        ops[name] = OpTiming(name, seconds, nbytes, used_rounds)

    # --- core substrate micro-ops on one representative pair ----------
    sample_old = tasks[0].old
    sample_new = tasks[0].new
    hasher = DecomposableAdler(seed=1)

    scan_rounds = max(rounds, 3)
    record(
        "window_hash_scan",
        _best_of(scan_rounds, lambda: window_hashes(sample_old, 64, hasher)),
        len(sample_old),
        scan_rounds,
    )

    signatures = compute_signatures(sample_old, 700)
    record(
        "match_tokens",
        _best_of(rounds, lambda: match_tokens(sample_new, signatures, 2)),
        len(sample_new),
        rounds,
    )

    delta_old = sample_old[: 128 * 1024]
    delta_new = sample_new[: 128 * 1024]
    record(
        "zdelta_encode",
        _best_of(rounds, lambda: zdelta_encode(delta_old, delta_new)),
        len(delta_new),
        rounds,
    )

    # --- collection-sync dispatch over the process pool ---------------
    probe = FingerprintProbeMethod()
    executor = SyncExecutor(workers=workers)
    record(
        "executor_pickle",
        _best_of(rounds, lambda: executor.run(probe, tasks)),
        payload,
        rounds,
    )

    environment = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    workload = {
        "files": files,
        "file_kb": file_kb,
        "workers": workers,
        "rounds": rounds,
        "seed": seed,
    }
    return PerfBaseline(workload=workload, ops=ops, environment=environment)


def measure_delta(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_DELTA_FILE_KB,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
    scalar_files: int = DEFAULT_SCALAR_FILES,
) -> PerfBaseline:
    """Time delta matching on the seeded mixed workload.

    Three ops make up the BENCH_delta record:

    * ``delta_index_build`` — ``ReferenceMatcher`` construction (the
      cost the :class:`~repro.parallel.cache.ReferenceIndexCache`
      amortises away on repeated references);
    * ``delta_match_vectorized`` — :func:`compute_instructions` (the
      one, chunked scan) over every pair;
    * ``delta_match_scalar`` — window hashes plus the per-position
      ``_scan_scalar`` oracle, called directly because nothing in the
      product calls it, over the first ``scalar_files`` pairs (MB/s
      normalises by payload).

    Matchers are prebuilt so both ops time the matching itself, not
    index construction; payload counts *target* bytes matched.
    """
    from repro.delta.matcher import (
        _SEED_HASHER,
        ReferenceMatcher,
        _scan_scalar,
        compute_instructions,
    )
    from repro.hashing.scan import window_hashes

    pairs = build_delta_workload(files=files, file_kb=file_kb, seed=seed)
    matchers = [ReferenceMatcher(reference) for reference, _target in pairs]
    ops: dict[str, OpTiming] = {}

    build_rounds = max(1, rounds - 1)
    ops["delta_index_build"] = OpTiming(
        "delta_index_build",
        _best_of(
            build_rounds,
            lambda: ReferenceMatcher(pairs[0][0]),
        ),
        len(pairs[0][0]),
        build_rounds,
    )

    def run_vectorized() -> None:
        for (reference, target), matcher in zip(pairs, matchers):
            compute_instructions(reference, target, matcher=matcher)

    def run_scalar(count: int) -> None:
        for (reference, target), matcher in zip(pairs[:count], matchers[:count]):
            _scan_scalar(
                matcher,
                memoryview(reference),
                target,
                memoryview(target),
                window_hashes(target, matcher.seed_length, _SEED_HASHER),
                matcher.seed_length,
            )

    ops["delta_match_vectorized"] = OpTiming(
        "delta_match_vectorized",
        _best_of(rounds, run_vectorized),
        sum(len(target) for _reference, target in pairs),
        rounds,
    )

    scalar_files = max(1, min(scalar_files, files))
    scalar_rounds = max(1, rounds - 1)
    ops["delta_match_scalar"] = OpTiming(
        "delta_match_scalar",
        _best_of(scalar_rounds, lambda: run_scalar(scalar_files)),
        sum(len(target) for _reference, target in pairs[:scalar_files]),
        scalar_rounds,
    )

    environment = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    workload = {
        "files": files,
        "file_kb": file_kb,
        "rounds": rounds,
        "seed": seed,
        "scalar_files": scalar_files,
    }
    return PerfBaseline(workload=workload, ops=ops, environment=environment)


def measure_protocol(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_DELTA_FILE_KB,
    rounds: int = DEFAULT_PROTOCOL_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> PerfBaseline:
    """Time the core protocol on the seeded mixed workload.

    One op makes up the BENCH_protocol record:
    ``protocol_sync_vectorized``, end-to-end
    :func:`repro.core.synchronize` over every pair — an absolute number
    the tolerance gate compares against the committed record.  Each timed
    pass starts from a cold :func:`~repro.parallel.cache.default_cache`.
    """
    from repro.core import ProtocolConfig, synchronize
    from repro.parallel.cache import reset_default_cache

    pairs = build_delta_workload(files=files, file_kb=file_kb, seed=seed)
    config = ProtocolConfig()

    def run_all() -> None:
        reset_default_cache()
        for reference, target in pairs:
            synchronize(reference, target, config)

    rounds = max(1, rounds)
    ops = {
        "protocol_sync_vectorized": OpTiming(
            "protocol_sync_vectorized",
            _best_of(rounds, run_all),
            sum(len(target) for _reference, target in pairs),
            rounds,
        )
    }
    reset_default_cache()

    environment = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    workload = {
        "files": files,
        "file_kb": file_kb,
        "rounds": rounds,
        "seed": seed,
    }
    return PerfBaseline(workload=workload, ops=ops, environment=environment)


def measure_pipeline(
    files: int = DEFAULT_FILES,
    file_kb: int = DEFAULT_PIPELINE_FILE_KB,
    window: int = DEFAULT_PIPELINE_WINDOW,
    seed: int = DEFAULT_SEED,
    latency_s: float = DEFAULT_PIPELINE_LATENCY_S,
) -> PerfBaseline:
    """Measure the pipelined scheduler's latency hiding (BENCH_pipeline).

    Runs the same seeded 64-file workload through
    :func:`~repro.collection.sync.sync_collection` twice with the
    paper's protocol — sequentially and pipelined with ``window`` files
    in flight — over a ``latency_s`` one-way-delay link (0.150 s = a
    300 ms-RTT slow network).  Each op records the *modelled* link wall
    clock as its timing and the wire direction reversals as its round
    count, so the record (and the derived ``pipeline_latency_speedup``)
    is fully deterministic: byte counts and reversal counts do not
    depend on the machine.
    """
    from repro.bench.methods import OursMethod
    from repro.collection.sync import sync_collection
    from repro.net.channel import LinkModel

    old_side, new_side = build_workload(files=files, file_kb=file_kb, seed=seed)
    payload = sum(len(data) for data in new_side.values())
    link = LinkModel(latency_s=latency_s)
    ops: dict[str, OpTiming] = {}

    sequential = sync_collection(
        old_side, new_side, OursMethod(), link=link
    )
    ops["collection_sequential"] = OpTiming(
        "collection_sequential",
        sequential.link_wall_clock_s,
        payload,
        sequential.roundtrips_on_wire,
    )

    pipelined = sync_collection(
        old_side,
        new_side,
        OursMethod(),
        link=link,
        pipeline=True,
        window=window,
    )
    ops["collection_pipelined"] = OpTiming(
        "collection_pipelined",
        pipelined.link_wall_clock_s,
        payload,
        pipelined.roundtrips_on_wire,
    )

    environment = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    workload = {
        "files": files,
        "file_kb": file_kb,
        "window": window,
        "seed": seed,
        "latency_ms": int(latency_s * 1000),
    }
    return PerfBaseline(workload=workload, ops=ops, environment=environment)


def measure_reuse(
    clients: int = DEFAULT_REUSE_CLIENTS,
    files: int = DEFAULT_REUSE_FILES,
    versions: int = DEFAULT_REUSE_VERSIONS,
    file_kb: int = DEFAULT_REUSE_FILE_KB,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> PerfBaseline:
    """Measure the cross-file reuse layer on the fleet workload.

    Four ops make up the BENCH_reuse record:

    * ``broadcast_cold_client`` — serving the last fleet client from a
      freshly-built :class:`~repro.reuse.broadcast.BroadcastDeltaServer`
      (empty memo: every delta computed from scratch);
    * ``broadcast_warm_client`` — serving the *same* client after the
      rest of the fleet primed the shared memo cache (the steady-state
      Nth-client cost the layer is designed for);
    * ``broadcast_wire_sibling`` / ``broadcast_wire_full`` — total fleet
      wire bytes (recorded as the payload) with the sibling-reference
      path on and off; their ratio is the deterministic
      ``sibling_wire_savings``.

    The derived ``reuse_memo_speedup`` is cold over warm wall clock.

    Open assumption (ROADMAP item 1): ``BroadcastDeltaServer.serve`` is
    handed each client's files and deltas against those client versions
    (self-deltas and sibling references alike), which a real server can
    only do for versions it holds.  The server here ingests every
    published version but the newest (``ingest_history``), and clients
    are pinned at those versions, so the numbers, ``sibling_wire_savings``
    included, assume it ingested each client version; nothing in
    ``serve`` enforces that.
    """
    from repro.reuse import BroadcastDeltaServer, DedupStore, DeltaMemoCache
    from repro.workloads.fleet import make_fleet

    fleet = make_fleet(
        clients=clients,
        files=files,
        versions=versions,
        seed=seed,
        mean_size=file_kb * 1024,
    )
    last_client = fleet.clients[-1].files
    payload = sum(len(data) for data in fleet.server.values())
    ops: dict[str, OpTiming] = {}

    def fresh_server(resemblance_threshold: float = 0.5) -> BroadcastDeltaServer:
        server = BroadcastDeltaServer(
            fleet.server,
            memo=DeltaMemoCache(),
            dedup=DedupStore(),
            resemblance_threshold=resemblance_threshold,
        )
        for version in fleet.versions[:-1]:
            server.ingest_history(version)
        return server

    rounds = max(1, rounds)
    cold_best = float("inf")
    for _ in range(rounds):
        server = fresh_server()
        started = time.perf_counter()
        server.serve(last_client)
        cold_best = min(cold_best, time.perf_counter() - started)
    ops["broadcast_cold_client"] = OpTiming(
        "broadcast_cold_client", cold_best, payload, rounds
    )

    warm_server = fresh_server()
    for client in fleet.clients:
        warm_server.serve(client.files)
    ops["broadcast_warm_client"] = OpTiming(
        "broadcast_warm_client",
        _best_of(rounds, lambda: warm_server.serve(last_client)),
        payload,
        rounds,
    )

    for op_name, threshold in (
        ("broadcast_wire_sibling", 0.5),
        ("broadcast_wire_full", 2.0),  # nothing resembles above 1.0
    ):
        server = fresh_server(resemblance_threshold=threshold)
        started = time.perf_counter()
        wire = sum(
            server.serve(client.files).wire_bytes for client in fleet.clients
        )
        ops[op_name] = OpTiming(
            op_name, time.perf_counter() - started, wire, 1
        )

    environment = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    workload = {
        "clients": clients,
        "files": files,
        "versions": versions,
        "file_kb": file_kb,
        "rounds": rounds,
        "seed": seed,
    }
    return PerfBaseline(workload=workload, ops=ops, environment=environment)


def render_baseline(baseline: PerfBaseline) -> str:
    """Terminal table of one measurement (the published benchmark table)."""
    from repro.bench.report import render_table

    rows = []
    for name, op in sorted(baseline.ops.items()):
        rows.append(
            [
                name,
                f"{op.seconds * 1000:.1f}",
                f"{op.mb_per_s:,.1f}",
                f"{op.payload_bytes / 1024:,.0f}",
                str(op.rounds),
            ]
        )
    title = (
        f"perf baseline — {baseline.workload['files']} files × "
        f"{baseline.workload['file_kb']} KB"
    )
    if "workers" in baseline.workload:
        title += f", workers={baseline.workload['workers']}"
    delta = baseline.delta_speedup
    if delta:
        title += f"; vectorized delta match {delta:.2f}x over scalar"
    pipeline = baseline.pipeline_speedup
    if pipeline:
        title += f"; pipelined wall clock {pipeline:.2f}x over sequential"
    reuse = baseline.reuse_speedup
    if reuse:
        title += f"; warm memo serve {reuse:.2f}x over cold"
    savings = baseline.sibling_wire_savings
    if savings:
        title += f"; sibling refs save {savings:.1%} of fleet wire bytes"
    return render_table(
        ["op", "ms (best)", "MB/s", "payload KB", "rounds"], rows, title=title
    )
