"""Command-line interface: synchronise files or directories, run demos.

Installed as ``repro-sync`` (or ``python -m repro.cli``)::

    repro-sync sync OLD NEW             # one file or one directory pair
    repro-sync sync OLD NEW --method rsync
    repro-sync bench --workload gcc     # quick method comparison table

Both endpoints are local paths — the tool reports the bytes the protocol
*would* move over a network, which is the quantity the paper studies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import run_method_on_collection, render_table
from repro.bench.methods import (
    FullTransferMethod,
    MultiroundRsyncMethod,
    OursMethod,
    RsyncMethod,
    RsyncOptimalMethod,
    SyncMethod,
    VcdiffMethod,
    ZdeltaMethod,
    standard_methods,
)
from repro.core import ProtocolConfig
from repro.exceptions import ReproError
from repro.grouptesting import strategy_names
from repro.workloads import emacs_like, gcc_like, make_web_collection

_METHOD_FACTORIES = {
    "ours": lambda args: OursMethod(_config_from_args(args)),
    "multiround": lambda args: MultiroundRsyncMethod(),
    "rsync": lambda args: RsyncMethod(block_size=args.rsync_block),
    "rsync-opt": lambda args: RsyncOptimalMethod(),
    "zdelta": lambda args: ZdeltaMethod(),
    "vcdiff": lambda args: VcdiffMethod(),
    "full": lambda args: FullTransferMethod(),
}


def _worker_count(text: str) -> int:
    """argparse type for --workers: non-negative int, 0 = one per CPU."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per CPU), got {value}"
        )
    return value


def _config_from_args(args: argparse.Namespace) -> ProtocolConfig:
    return ProtocolConfig(
        min_block_size=args.min_block,
        continuation_min_block_size=args.continuation_min,
        verification=args.verification,
    )


def _load_side(path: Path) -> dict[str, bytes]:
    """A file becomes a single-entry collection; a directory is walked."""
    if path.is_file():
        return {path.name: path.read_bytes()}
    if path.is_dir():
        return {
            str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }
    raise ReproError(f"{path} is neither a file nor a directory")


def _fault_plan_from_args(args: argparse.Namespace):
    """Build a FaultPlan from --fault-rate/--fault-seed (None if clean)."""
    if not args.fault_rate:
        return None
    from repro.net.faults import FaultPlan

    return FaultPlan.uniform(args.fault_rate, seed=args.fault_seed)


def _retry_policy_from_args(args: argparse.Namespace):
    if args.retries is None:
        return None
    from repro.resilience import RetryPolicy

    return RetryPolicy(max_attempts=args.retries)


def _cmd_sync(args: argparse.Namespace) -> int:
    old_path, new_path = Path(args.old), Path(args.new)
    if old_path.is_file() and new_path.is_file():
        # A plain file pair is one logical file regardless of basenames.
        old_side = {"file": old_path.read_bytes()}
        new_side = {"file": new_path.read_bytes()}
    else:
        old_side = _load_side(old_path)
        new_side = _load_side(new_path)

    fault_plan = _fault_plan_from_args(args)
    if args.batched:
        if args.method != "ours":
            print("error: --batched requires --method ours", file=sys.stderr)
            return 2
        if fault_plan is not None:
            print("error: --batched does not support fault injection",
                  file=sys.stderr)
            return 2
        if args.checkpoint_dir is not None or args.resume:
            print("error: --batched does not support checkpoints",
                  file=sys.stderr)
            return 2
        return _sync_batched(args, old_side, new_side)
    if args.pipeline:
        if args.method not in ("ours", "multiround"):
            print("error: --pipeline requires --method ours or multiround",
                  file=sys.stderr)
            return 2
        if fault_plan is not None:
            print("error: --pipeline does not support fault injection",
                  file=sys.stderr)
            return 2
        if (
            args.retries is not None
            or args.adaptive_retry
            or args.deadline is not None
            or args.run_deadline is not None
            or args.breaker_threshold is not None
        ):
            print("error: --pipeline does not support retries, deadlines "
                  "or breakers", file=sys.stderr)
            return 2
        # Error isolation needs the sequential path; pipelined runs
        # always abort on failure.
        args.on_error = "raise"
    method: SyncMethod = _METHOD_FACTORIES[args.method](args)
    run = run_method_on_collection(
        method,
        old_side,
        new_side,
        workers=args.workers or None,
        use_arena=args.arena,
        on_error=args.on_error,
        fault_plan=fault_plan,
        retry_policy=_retry_policy_from_args(args),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        store=args.output,
        adaptive_retry=args.adaptive_retry,
        deadline_s=args.deadline,
        run_deadline_s=args.run_deadline,
        breaker_threshold=args.breaker_threshold,
        pipeline=args.pipeline,
        window=args.window,
        delta_memo=args.delta_memo,
        sibling_refs=args.sibling_refs,
        resemblance_threshold=args.resemblance_threshold,
    )
    adaptive_active = (
        args.adaptive_retry
        or args.deadline is not None
        or args.run_deadline is not None
        or args.breaker_threshold is not None
    )

    if args.json:
        print(json.dumps({**run.row(), "breakdown": run.breakdown}, indent=2))
    else:
        total_new = sum(len(v) for v in new_side.values())
        print(f"method          : {run.method}")
        print(f"files           : {run.files_changed} changed, "
              f"{run.files_unchanged} unchanged")
        print(f"bytes on wire   : {run.total_bytes:,} "
              f"({run.total_bytes / max(total_new, 1):.1%} of target size)")
        print(f"  manifest      : {run.manifest_bytes:,}")
        print(f"  changed files : {run.changed_bytes:,}")
        print(f"  added files   : {run.added_bytes:,}")
        print(f"workers         : {run.workers} "
              f"(cpu {run.cpu_seconds:.2f}s, cache "
              f"{run.cache_hits}/{run.cache_hits + run.cache_misses} hits)")
        if run.arena_used:
            print(f"arena           : {run.arena_bytes:,} B shared-memory "
                  f"payload (zero-copy dispatch)")
        if fault_plan is not None or run.retries or run.failed_files:
            print(f"resilience      : {run.retries} retries, "
                  f"{run.fallback_files} fallbacks, "
                  f"{run.failed_files} failed, "
                  f"{run.retransmitted_bytes:,} B retransmitted "
                  f"(~{run.recovery_seconds:.1f}s recovery)")
        if adaptive_active:
            print(f"link health     : {run.health_score:.2f} score, "
                  f"{run.breaker_opens} breaker opens, "
                  f"{run.deadline_salvages} deadline salvages, "
                  f"{run.adaptive_backoff_s:.1f}s adaptive backoff")
        if run.collisions_detected:
            print(f"integrity       : {run.collisions_detected} collisions "
                  f"detected, {run.repair_rounds} repair rounds, "
                  f"{run.repair_bytes:,} B surgical repair")
        print(f"link latency    : {run.roundtrips_on_wire} roundtrips on "
              f"wire (~{run.link_wall_clock_s:.1f}s modelled wall clock)")
        if run.pipelined:
            print(f"pipeline        : {run.waves} waves, "
                  f"{run.mux_overhead_bytes:,} B mux framing overhead")
        if (
            args.delta_memo
            or args.sibling_refs
            or run.dedup_hits
            or run.delta_memo_hits
            or run.sibling_refs_used
        ):
            print(f"reuse           : {run.dedup_hits} dedup hits, "
                  f"{run.delta_memo_hits}/"
                  f"{run.delta_memo_hits + run.delta_memo_misses} memo hits, "
                  f"{run.sibling_refs_used} sibling refs "
                  f"({run.bytes_saved_vs_self_ref:,} B saved)")
        if args.checkpoint_dir is not None:
            print(f"checkpoints     : {run.rounds_salvaged} rounds salvaged, "
                  f"{run.resume_handshake_bits} handshake bits, "
                  f"{run.checkpoint_bytes_written:,} B journalled locally")
    return 0


def _sync_batched(
    args: argparse.Namespace,
    old_side: dict[str, bytes],
    new_side: dict[str, bytes],
) -> int:
    from repro.collection import sync_collection_batched

    report = sync_collection_batched(
        old_side, new_side, _config_from_args(args)
    )
    if args.json:
        print(
            json.dumps(
                {
                    "method": report.method,
                    "total_bytes": report.total_bytes,
                    "manifest_bytes": report.manifest_bytes,
                    "changed_bytes": report.changed_transfer_bytes,
                    "added_bytes": report.added_bytes,
                    "files_changed": report.files_changed,
                    "files_unchanged": report.files_unchanged,
                },
                indent=2,
            )
        )
    else:
        print(f"method          : {report.method}")
        print(f"files           : {report.files_changed} changed, "
              f"{report.files_unchanged} unchanged")
        print(f"bytes on wire   : {report.total_bytes:,}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Post-crash sweep: quarantine temporaries, list resumable journals."""
    from repro.collection import load_manifest
    from repro.resilience import QUARANTINE_DIR, recover_store

    manifest = load_manifest(args.manifest) if args.manifest else None
    report = recover_store(
        args.path, manifest=manifest, checkpoint_dir=args.checkpoint_dir
    )
    purged: list[str] = []
    quarantine = Path(args.path) / QUARANTINE_DIR
    if args.purge and quarantine.is_dir():
        # Listing above preserved the evidence for this run's output;
        # now the incident is acknowledged, empty the quarantine.
        for entry in sorted(quarantine.iterdir()):
            if entry.is_file():
                purged.append(str(entry))
                entry.unlink()
        try:
            quarantine.rmdir()
        except OSError:
            pass  # non-file residue: leave the directory in place
    if args.json:
        print(
            json.dumps(
                {
                    "root": str(report.root),
                    "clean": report.clean,
                    "quarantined": [str(p) for p in report.quarantined],
                    "missing": report.missing,
                    "stale": report.stale,
                    "pending_journals": [
                        str(p) for p in report.pending_journals
                    ],
                    "purged": purged,
                },
                indent=2,
            )
        )
    else:
        for path in report.quarantined:
            print(f"Q {path}")
        for name in report.missing:
            print(f"! missing {name}")
        for name in report.stale:
            print(f"! stale   {name}")
        for path in report.pending_journals:
            print(f"R {path}")
        if report.clean:
            print(f"{report.root}: clean")
        else:
            print(
                f"{len(report.quarantined)} quarantined, "
                f"{len(report.missing)} missing, {len(report.stale)} stale, "
                f"{len(report.pending_journals)} resumable journals"
            )
            if report.pending_journals:
                print("rerun the sync with --resume to salvage the "
                      "journalled rounds")
        if purged:
            print(f"purged {len(purged)} quarantined files")
        elif not args.purge and quarantine.is_dir():
            print("quarantine kept (pass --purge to empty it)")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    """Anti-entropy audit of a replica store, or the scrub-soak matrix."""
    if args.soak:
        from repro.bench.soak import run_scrub_soak

        report = run_scrub_soak(
            seeds=tuple(args.seeds),
            profile=args.profile,
            shape=args.shape,
            adaptive=not args.static,
        )
        print(report.to_json() if args.json else report.render())
        if args.out is not None:
            Path(args.out).write_text(report.to_json() + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        return 0 if report.all_converged else 1

    if args.path is None or args.manifest is None:
        print("error: scrub needs a store PATH and --manifest "
              "(or --soak for the synthetic matrix)", file=sys.stderr)
        return 2
    from repro.collection import StoreScrubber, load_manifest

    manifest = load_manifest(args.manifest)
    scrubber = StoreScrubber(
        args.path,
        manifest,
        cursor_path=args.cursor,
        rate_limit_bps=args.rate_limit,
    )
    report = scrubber.scrub(
        max_entries=args.max_entries,
        quarantine=not args.no_quarantine,
    )
    repaired = None
    if args.repair and not report.clean:
        if args.source is None:
            print("error: --repair needs --source (the pristine "
                  "collection to fetch damaged entries from)",
                  file=sys.stderr)
            return 2
        source = _load_side(Path(args.source))
        repaired = scrubber.repair(
            source,
            report=report,
            adaptive_retry=True,
            on_error="fallback",
        )
    if args.json:
        payload: dict[str, object] = {
            "root": str(report.root),
            "scanned": report.scanned,
            "ok": report.ok,
            "divergent": report.divergent,
            "missing": report.missing,
            "quarantined": [str(p) for p in report.quarantined],
            "completed": report.completed,
            "bytes_read": report.bytes_read,
            "clean": report.clean,
        }
        if repaired is not None:
            payload["repair"] = {
                "total_bytes": repaired.total_bytes,
                "files_changed": repaired.files_changed,
                "collisions_detected": repaired.collisions_detected,
                "repair_rounds": repaired.repair_rounds,
                "repair_bytes": repaired.repair_bytes,
            }
        print(json.dumps(payload, indent=2))
    else:
        for name in report.divergent:
            print(f"! divergent {name}")
        for name in report.missing:
            print(f"! missing   {name}")
        progress = "pass complete" if report.completed else \
            "pass paused (cursor saved)"
        print(f"scrubbed {report.scanned} entries "
              f"({report.bytes_read:,} B): {report.ok} ok, "
              f"{len(report.divergent)} divergent, "
              f"{len(report.missing)} missing — {progress}")
        if repaired is not None:
            print(f"repaired {repaired.files_changed + len(report.missing)} "
                  f"entries with {repaired.total_bytes:,} B on the wire")
    if repaired is not None:
        return 0 if scrubber.scrub_all(quarantine=False).clean else 1
    return 0 if report.clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos-soak matrix: shaped fault schedules × seeds over a workload."""
    from repro.bench.soak import run_soak
    from repro.net.chaos import CHAOS_SHAPES

    shapes = tuple(args.shapes)
    for shape in shapes:
        if shape not in CHAOS_SHAPES:
            print(f"error: unknown shape {shape!r} "
                  f"(choose from {', '.join(CHAOS_SHAPES)})",
                  file=sys.stderr)
            return 2
    report = run_soak(
        shapes=shapes,
        seeds=tuple(args.seeds),
        profile=args.profile,
        adaptive=not args.static,
        breaker_threshold=args.breaker_threshold,
    )
    rendered = report.to_json() if args.json else report.render()
    print(rendered)
    if args.out is not None:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.all_cells_consistent else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Round-by-round trace of one file pair."""
    from repro.core import synchronize
    from repro.core.trace import summarize_trace

    old_data = Path(args.old).read_bytes()
    new_data = Path(args.new).read_bytes()
    config = _config_from_args(args).with_overrides(collect_trace=True)
    result = synchronize(old_data, new_data, config)
    for trace in result.trace:
        print(trace.describe())
    summary = summarize_trace(result.trace)
    print(
        f"\ntotal {result.total_bytes:,} B "
        f"({result.map_bytes:,} map + {result.delta_bytes:,} delta), "
        f"{summary['hashes_sent']} hashes "
        f"({summary['derived_hashes']} derived free), "
        f"coverage {result.known_fraction:.1%}"
    )
    return 0


def _cmd_manifest(args: argparse.Namespace) -> int:
    """Create or diff on-disk fingerprint manifests."""
    from repro.collection import (
        Manifest,
        diff_manifests,
        load_manifest,
        save_manifest,
    )

    if args.action == "create":
        files = _load_side(Path(args.path))
        manifest = Manifest.of_collection(files)
        save_manifest(manifest, args.output)
        print(f"wrote {len(manifest)} entries to {args.output}")
        return 0
    # action == "diff": stored manifest (the past) vs a directory (now).
    stored = load_manifest(args.manifest_file)
    current = Manifest.of_collection(_load_side(Path(args.path)))
    diff = diff_manifests(stored, current)
    if args.json:
        print(
            json.dumps(
                {
                    "changed": diff.changed,
                    "added": diff.added,
                    "removed": diff.removed,
                    "unchanged": len(diff.unchanged),
                },
                indent=2,
            )
        )
    else:
        for name in diff.changed:
            print(f"M {name}")
        for name in diff.added:
            print(f"A {name}")
        for name in diff.removed:
            print(f"D {name}")
        print(
            f"{len(diff.changed)} changed, {len(diff.added)} added, "
            f"{len(diff.removed)} removed, {len(diff.unchanged)} unchanged"
        )
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    """Measure the substrate perf baselines; record or compare them.

    Five baselines make up the perf gate: the parallel-substrate record
    (``BENCH_parallel.json``), the delta-encode throughput record
    (``BENCH_delta.json``), the whole-round protocol-engine record
    (``BENCH_protocol.json``), the pipelined-scheduler latency record
    (``BENCH_pipeline.json``), and the cross-file reuse record
    (``BENCH_reuse.json``).  All are measured, printed, and compared
    (or rewritten with ``--update``) in one invocation so CI stays a
    single command.
    """
    from repro.bench.perfbaseline import (
        compare_baselines,
        load_baseline,
        measure,
        measure_delta,
        measure_pipeline,
        measure_protocol,
        measure_reuse,
        render_baseline,
        save_baseline,
    )

    import os

    current = measure(workers=args.workers or os.cpu_count() or 1)
    measurements = [(Path(args.baseline), current)]
    if not args.no_delta:
        measurements.append((Path(args.delta_baseline), measure_delta()))
    if not args.no_protocol:
        measurements.append(
            (Path(args.protocol_baseline), measure_protocol())
        )
    if not args.no_pipeline:
        measurements.append(
            (Path(args.pipeline_baseline), measure_pipeline())
        )
    if not args.no_reuse:
        measurements.append(
            (Path(args.reuse_baseline), measure_reuse())
        )

    for _path, measurement in measurements:
        if args.json:
            print(measurement.to_json(), end="")
        else:
            print(render_baseline(measurement))

    if args.update:
        for path, measurement in measurements:
            save_baseline(measurement, path)
            print(f"wrote baseline to {path}")
        return 0

    findings: list[str] = []
    for path, measurement in measurements:
        if not path.exists():
            print(
                f"error: no baseline at {path} (record one with --update)",
                file=sys.stderr,
            )
            return 2
        findings += [
            f"[{path.name}] {finding}"
            for finding in compare_baselines(
                measurement, load_baseline(path), tolerance=args.tolerance
            )
        ]
    if findings:
        print("\nPERF REGRESSIONS:", file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)
        return 1
    compared = ", ".join(str(path) for path, _measurement in measurements)
    print(f"\nno regressions vs {compared} "
          f"(tolerance {args.tolerance:.0%})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_action == "perf":
        return _cmd_bench_perf(args)
    if args.workload == "gcc":
        tree = gcc_like(scale=args.scale, seed=args.seed)
        old_side, new_side = tree.old, tree.new
    elif args.workload == "emacs":
        tree = emacs_like(scale=args.scale, seed=args.seed)
        old_side, new_side = tree.old, tree.new
    else:
        collection = make_web_collection(
            page_count=max(10, int(100 * args.scale)),
            days=(0, 1),
            seed=args.seed,
        )
        old_side, new_side = collection.snapshot(0), collection.snapshot(1)

    rows = []
    for method in standard_methods():
        run = run_method_on_collection(
            method,
            old_side,
            new_side,
            workers=args.workers or None,
            use_arena=args.arena,
        )
        rows.append(
            [
                method.name,
                f"{run.total_kb:,.1f}",
                f"{run.elapsed_seconds:.1f}",
                f"{run.cpu_seconds:.1f}",
            ]
        )
    print(
        render_table(
            ["method", "KB", "wall s", "cpu s"],
            rows,
            title=(
                f"workload={args.workload} scale={args.scale} "
                f"workers={args.workers}"
            ),
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sync",
        description="Bandwidth-efficient file synchronization (ICDE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sync = sub.add_parser("sync", help="synchronise a file or directory pair")
    sync.add_argument("old", help="outdated file or directory (the client)")
    sync.add_argument("new", help="current file or directory (the server)")
    sync.add_argument(
        "--method", choices=sorted(_METHOD_FACTORIES), default="ours"
    )
    sync.add_argument("--min-block", type=int, default=64,
                      help="minimum block size for global hashes")
    sync.add_argument("--continuation-min", type=int, default=16,
                      help="minimum block size for continuation hashes")
    sync.add_argument("--verification", choices=strategy_names(),
                      default="group2")
    sync.add_argument("--rsync-block", type=int, default=700,
                      help="block size for --method rsync")
    sync.add_argument("--json", action="store_true",
                      help="machine-readable output")
    sync.add_argument("--workers", type=_worker_count, default=1,
                      help="process count for changed-file fan-out "
                           "(0 = one per CPU)")
    sync.add_argument("--arena", action=argparse.BooleanOptionalAction,
                      default=None,
                      help="dispatch multi-worker payloads through the "
                           "zero-copy shared-memory arena (default: auto "
                           "when available; --no-arena forces pickling)")
    sync.add_argument("--batched", action="store_true",
                      help="share roundtrips across all changed files "
                           "(only with --method ours)")
    sync.add_argument("--pipeline", action="store_true",
                      help="interleave the changed files' protocol rounds "
                           "over one multiplexed channel, hiding link "
                           "latency (only with --method ours/multiround)")
    sync.add_argument("--window", type=int, default=8,
                      help="max files in flight under --pipeline "
                           "(default 8)")
    sync.add_argument("--delta-memo", action=argparse.BooleanOptionalAction,
                      default=None,
                      help="memoize delta instruction lists and payloads "
                           "by content fingerprint pair (default: off, or "
                           "the REPRO_DELTA_MEMO env setting)")
    sync.add_argument("--sibling-refs", action="store_true",
                      help="delta-encode added files against similar "
                           "sibling files already on the client "
                           "(min-hash resemblance lookup)")
    sync.add_argument("--resemblance-threshold", type=float, default=0.5,
                      help="minimum estimated resemblance before a "
                           "sibling reference is attempted (default 0.5)")
    sync.add_argument("--fault-rate", type=float, default=0.0,
                      help="inject channel faults (corruption/truncation/"
                           "drops) at this per-message rate")
    sync.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the deterministic fault plan")
    sync.add_argument("--on-error", choices=("raise", "skip", "fallback"),
                      default="fallback",
                      help="per-file error isolation: abort, keep the old "
                           "copy, or rescue with a full transfer")
    sync.add_argument("--retries", type=int, default=None,
                      help="retry attempts per ladder rung before "
                           "degrading (default: supervisor default of 3)")
    sync.add_argument("--adaptive-retry", action="store_true",
                      help="replace the static retry schedule with the "
                           "health-aware AIMD policy (widens backoff on "
                           "transient faults, tightens on clean streaks)")
    sync.add_argument("--deadline", type=float, default=None,
                      help="per-file simulated-time budget in seconds; a "
                           "file over budget is reported failed with its "
                           "checkpointed rounds salvaged")
    sync.add_argument("--run-deadline", type=float, default=None,
                      help="whole-run simulated-time budget in seconds "
                           "shared by every file (forces --workers 1)")
    sync.add_argument("--breaker-threshold", type=int, default=None,
                      help="open a per-file circuit breaker after this "
                           "many consecutive failed attempts")
    sync.add_argument("--checkpoint-dir", default=None,
                      help="journal completed protocol rounds here so "
                           "interrupted sessions can resume instead of "
                           "restarting")
    sync.add_argument("--resume", action="store_true",
                      help="honour checkpoint journals left by a previous "
                           "(crashed) run; requires --checkpoint-dir")
    sync.add_argument("--output", default=None,
                      help="materialise the reconstructed collection into "
                           "this directory (every file written atomically)")
    sync.set_defaults(handler=_cmd_sync)

    trace = sub.add_parser(
        "trace", help="print the round-by-round protocol trace for a "
                      "file pair"
    )
    trace.add_argument("old")
    trace.add_argument("new")
    trace.add_argument("--min-block", type=int, default=64)
    trace.add_argument("--continuation-min", type=int, default=16)
    trace.add_argument("--verification", choices=strategy_names(),
                       default="group2")
    trace.set_defaults(handler=_cmd_trace)

    manifest = sub.add_parser(
        "manifest", help="create or diff fingerprint manifests"
    )
    manifest_sub = manifest.add_subparsers(dest="action", required=True)
    manifest_create = manifest_sub.add_parser(
        "create", help="fingerprint a directory into a manifest file"
    )
    manifest_create.add_argument("path")
    manifest_create.add_argument("-o", "--output", required=True)
    manifest_create.set_defaults(handler=_cmd_manifest)
    manifest_diff = manifest_sub.add_parser(
        "diff", help="what changed in a directory since a stored manifest"
    )
    manifest_diff.add_argument("manifest_file")
    manifest_diff.add_argument("path")
    manifest_diff.add_argument("--json", action="store_true")
    manifest_diff.set_defaults(handler=_cmd_manifest)

    bench = sub.add_parser("bench", help="quick method comparison on a "
                                         "synthetic workload, or the "
                                         "substrate perf baseline")
    bench.add_argument("--workload", choices=("gcc", "emacs", "web"),
                       default="gcc")
    bench.add_argument("--scale", type=float, default=0.1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=_worker_count, default=1,
                       help="process count for changed-file fan-out "
                            "(0 = one per CPU)")
    bench.add_argument("--arena", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="dispatch multi-worker payloads through the "
                            "zero-copy shared-memory arena (default: auto)")
    bench.set_defaults(handler=_cmd_bench, bench_action=None)
    bench_sub = bench.add_subparsers(dest="bench_action")
    bench_perf = bench_sub.add_parser(
        "perf", help="time core substrate ops and the arena vs pickle "
                     "dispatch paths; compare against BENCH_parallel.json"
    )
    bench_perf.add_argument("--baseline", default="BENCH_parallel.json",
                            help="baseline JSON to compare against or "
                                 "update")
    bench_perf.add_argument("--delta-baseline", default="BENCH_delta.json",
                            help="delta-throughput baseline JSON to "
                                 "compare against or update")
    bench_perf.add_argument("--no-delta", action="store_true",
                            help="skip the delta-throughput measurement "
                                 "(substrate ops only)")
    bench_perf.add_argument("--protocol-baseline",
                            default="BENCH_protocol.json",
                            help="protocol-engine baseline JSON to "
                                 "compare against or update")
    bench_perf.add_argument("--no-protocol", action="store_true",
                            help="skip the protocol-engine measurement")
    bench_perf.add_argument("--pipeline-baseline",
                            default="BENCH_pipeline.json",
                            help="pipelined-scheduler latency baseline JSON "
                                 "to compare against or update")
    bench_perf.add_argument("--no-pipeline", action="store_true",
                            help="skip the pipeline-latency measurement")
    bench_perf.add_argument("--reuse-baseline",
                            default="BENCH_reuse.json",
                            help="cross-file reuse baseline JSON to "
                                 "compare against or rewrite")
    bench_perf.add_argument("--no-reuse", action="store_true",
                            help="skip the cross-file reuse measurement")
    bench_perf.add_argument("--update", action="store_true",
                            help="record the current measurement as the "
                                 "new baseline instead of comparing")
    bench_perf.add_argument("--tolerance", type=float, default=0.5,
                            help="allowed slowdown fraction before an op "
                                 "counts as a regression (0.5 = 50%%)")
    bench_perf.add_argument("--workers", type=_worker_count, default=4,
                            help="executor worker count for the dispatch "
                                 "measurements (0 = one per CPU)")
    bench_perf.add_argument("--json", action="store_true",
                            help="print the raw measurement JSON")
    bench_perf.set_defaults(handler=_cmd_bench, bench_action="perf")

    chaos = sub.add_parser(
        "chaos", help="soak the resilience stack: shaped fault schedules "
                      "× seeds over a synthetic workload; exits non-zero "
                      "if any cell loses a healthy file"
    )
    chaos.add_argument("--shapes", nargs="+",
                       default=["bursty", "periodic", "degrading"],
                       help="fault schedule shapes to sweep "
                            "(steady, bursty, periodic, degrading)")
    chaos.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3],
                       help="fault plan seeds to sweep")
    chaos.add_argument("--profile", choices=("short", "long"),
                       default="short",
                       help="workload scale / fault rate / deadline preset")
    chaos.add_argument("--static", action="store_true",
                       help="run the static retry baseline instead of the "
                            "adaptive stack (no breakers, no deadlines)")
    chaos.add_argument("--breaker-threshold", type=int, default=3,
                       help="per-file breaker threshold for adaptive runs")
    chaos.add_argument("--json", action="store_true",
                       help="print the matrix as JSON instead of a table")
    chaos.add_argument("--out", default=None,
                       help="also write the JSON report to this path "
                            "(the CI chaos-soak artifact)")
    chaos.set_defaults(handler=_cmd_chaos)

    recover = sub.add_parser(
        "recover", help="sweep a replica directory after a crash: "
                        "quarantine orphaned temporaries, report pending "
                        "checkpoint journals"
    )
    recover.add_argument("path", help="replica root to sweep")
    recover.add_argument("--manifest", default=None,
                         help="stored manifest to verify files against")
    recover.add_argument("--checkpoint-dir", default=None,
                         help="checkpoint directory to scan for resumable "
                              "session journals")
    recover.add_argument("--json", action="store_true")
    recover.add_argument("--purge", action="store_true",
                         help="after listing, empty the quarantine "
                              "directory (without this flag quarantined "
                              "evidence is always kept)")
    recover.set_defaults(handler=_cmd_recover)

    scrub = sub.add_parser(
        "scrub", help="anti-entropy audit: re-fingerprint a replica store "
                      "against its manifest, quarantine divergence, "
                      "optionally repair it; or run the scrub-soak matrix"
    )
    scrub.add_argument("path", nargs="?", default=None,
                       help="replica store root to audit")
    scrub.add_argument("--manifest", default=None,
                       help="stored manifest recording the expected "
                            "fingerprints")
    scrub.add_argument("--cursor", default=None,
                       help="cursor file making bounded scrubs resumable "
                            "across invocations")
    scrub.add_argument("--max-entries", type=int, default=None,
                       help="audit at most this many entries, parking the "
                            "cursor for the next invocation")
    scrub.add_argument("--rate-limit", type=int, default=None,
                       help="bound the audit's read bandwidth "
                            "(bytes/second)")
    scrub.add_argument("--no-quarantine", action="store_true",
                       help="report divergence without copying evidence "
                            "into the quarantine directory")
    scrub.add_argument("--repair", action="store_true",
                       help="sync the damaged entries back from --source "
                            "(adaptive supervisor, full-transfer rescue)")
    scrub.add_argument("--source", default=None,
                       help="pristine collection directory to repair from")
    scrub.add_argument("--soak", action="store_true",
                       help="run the synthetic bit-rot soak matrix instead "
                            "of auditing a real store; exits non-zero "
                            "unless every replica converges")
    scrub.add_argument("--profile", choices=("short", "long"),
                       default="short",
                       help="soak workload scale / damage / fault preset")
    scrub.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3],
                       help="soak bit-rot seeds to sweep")
    scrub.add_argument("--shape", default="bursty",
                       help="fault schedule shape for the soak's repair "
                            "link")
    scrub.add_argument("--static", action="store_true",
                       help="soak with the static retry policy instead of "
                            "the adaptive stack")
    scrub.add_argument("--json", action="store_true",
                       help="machine-readable output")
    scrub.add_argument("--out", default=None,
                       help="also write the soak JSON report to this path "
                            "(the CI integrity artifact)")
    scrub.set_defaults(handler=_cmd_scrub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
