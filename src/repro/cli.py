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


def _positive(kind=int, zero_ok: bool = False):
    """argparse type: a ``kind`` number above zero (or zero, if allowed).

    Out-of-range values become a usage error (exit 2) at parse time
    instead of a ``ValueError`` from deep inside the run.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            )
        if not (value > 0 or (zero_ok and value == 0)):
            bound = ">= 0" if zero_ok else "> 0"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


def _fraction(text: str) -> float:
    """argparse type: a finite fraction in [0, 1] (a per-message rate)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
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


def _supervised(method: SyncMethod, args: argparse.Namespace) -> SyncMethod:
    """``method`` in a SyncSupervisor built from the resilience flags.

    ``--retries`` sets the schedule and ``--adaptive-retry`` picks the
    AIMD policy.  Without any resilience flag ``method`` comes back
    unwrapped.  ``--resume`` without ``--checkpoint-dir`` raises
    :class:`~repro.exceptions.ResumeRefusedError`.
    """
    from repro.net.faults import FaultPlan
    from repro.resilience import (
        AdaptiveRetryPolicy,
        BreakerBoard,
        CheckpointStore,
        DeadlineBudget,
        RetryPolicy,
        SyncSupervisor,
    )

    schedule = {} if args.retries is None else {"max_attempts": args.retries}
    options: dict[str, object] = {}
    if args.adaptive_retry:
        options["retry"] = AdaptiveRetryPolicy(**schedule)
    elif schedule:
        options["retry"] = RetryPolicy(**schedule)
    if args.fault_rate:
        options["fault_plan"] = FaultPlan.uniform(
            args.fault_rate, seed=args.fault_seed
        )
    if args.checkpoint_dir is not None or args.resume:
        options["checkpoints"] = CheckpointStore(
            args.checkpoint_dir, resume=args.resume
        )
    if args.breaker_threshold is not None:
        options["breakers"] = BreakerBoard(
            failure_threshold=args.breaker_threshold
        )
    if args.deadline is not None:
        options["deadline_s"] = args.deadline
    if args.run_deadline is not None:
        options["budget"] = DeadlineBudget(args.run_deadline)
    return SyncSupervisor(method, **options) if options else method


def _cmd_sync(args: argparse.Namespace) -> int:
    old_path, new_path = Path(args.old), Path(args.new)
    if old_path.is_file() and new_path.is_file():
        # A plain file pair is one logical file regardless of basenames.
        old_side = {"file": old_path.read_bytes()}
        new_side = {"file": new_path.read_bytes()}
    else:
        old_side = _load_side(old_path)
        new_side = _load_side(new_path)

    run = run_method_on_collection(
        _supervised(_METHOD_FACTORIES[args.method](args), args),
        old_side,
        new_side,
        workers=args.workers or None,
        on_error=args.on_error,
        store=args.output,
        pipeline=args.pipeline,
        window=args.window,
        sibling_refs=args.sibling_refs,
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
        if args.fault_rate or run.retries or run.failed_files:
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
            args.sibling_refs
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
    """Anti-entropy audit of a replica store."""
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
    if args.repair is not None and not report.clean:
        from repro.resilience import AdaptiveRetryPolicy, SyncSupervisor

        source = _load_side(Path(args.repair))
        repaired = scrubber.repair(
            source,
            report=report,
            method=SyncSupervisor(
                MultiroundRsyncMethod(), retry=AdaptiveRetryPolicy()
            ),
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


def _cmd_bench(args: argparse.Namespace) -> int:
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

    # The ProtocolConfig flags read by _config_from_args, shared by every
    # subcommand that runs the paper's protocol.
    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--min-block", type=int, default=64,
                          help="minimum block size for global hashes")
    protocol.add_argument("--continuation-min", type=int, default=16,
                          help="minimum block size for continuation hashes")
    protocol.add_argument("--verification", choices=strategy_names(),
                          default="group2")

    sync = sub.add_parser("sync", parents=[protocol],
                          help="synchronise a file or directory pair")
    sync.add_argument("old", help="outdated file or directory (the client)")
    sync.add_argument("new", help="current file or directory (the server)")
    sync.add_argument(
        "--method", choices=sorted(_METHOD_FACTORIES), default="ours"
    )
    sync.add_argument("--rsync-block", type=_positive(), default=700,
                      help="block size for --method rsync")
    sync.add_argument("--json", action="store_true",
                      help="machine-readable output")
    sync.add_argument("--workers", type=_positive(zero_ok=True), default=1,
                      help="process count for changed-file fan-out "
                           "(0 = one per CPU)")
    sync.add_argument("--pipeline", action="store_true",
                      help="carry the changed files' protocol rounds "
                           "over one multiplexed channel, hiding link "
                           "latency; the files run as without it, and "
                           "the shared link is replayed from their "
                           "transcripts")
    sync.add_argument("--window", type=_positive(), default=8,
                      help="max files in flight on the shared link "
                           "under --pipeline (default 8; the number of "
                           "changed files or more carries them all in "
                           "lockstep)")
    sync.add_argument("--sibling-refs", action="store_true",
                      help="delta-encode added files against similar "
                           "sibling files already on the client "
                           "(min-hash resemblance lookup)")
    sync.add_argument("--fault-rate", type=_fraction, default=0.0,
                      help="inject channel faults (corruption/truncation/"
                           "drops) at this per-message rate")
    sync.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the deterministic fault plan")
    sync.add_argument("--on-error", choices=("raise", "skip", "fallback"),
                      default="fallback",
                      help="per-file error isolation: abort, keep the old "
                           "copy, or rescue with a full transfer")
    sync.add_argument("--retries", type=_positive(), default=None,
                      help="retry attempts per ladder rung before "
                           "degrading (default: supervisor default of 3)")
    sync.add_argument("--adaptive-retry", action="store_true",
                      help="replace the static retry schedule with the "
                           "health-aware AIMD policy (widens backoff on "
                           "transient faults, tightens on clean streaks)")
    sync.add_argument("--deadline", type=_positive(float), default=None,
                      help="per-file simulated-time budget in seconds; a "
                           "file over budget is reported failed with its "
                           "checkpointed rounds salvaged")
    sync.add_argument("--run-deadline", type=_positive(float), default=None,
                      help="whole-run simulated-time budget in seconds "
                           "shared by every file (forces --workers 1)")
    sync.add_argument("--breaker-threshold", type=_positive(), default=None,
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
        "trace", parents=[protocol],
        help="print the round-by-round protocol trace for a file pair"
    )
    trace.add_argument("old")
    trace.add_argument("new")
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
                                         "synthetic workload")
    bench.add_argument("--workload", choices=("gcc", "emacs", "web"),
                       default="gcc")
    bench.add_argument("--scale", type=float, default=0.1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=_positive(zero_ok=True), default=1,
                       help="process count for changed-file fan-out "
                            "(0 = one per CPU)")
    bench.set_defaults(handler=_cmd_bench)

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
                      "optionally repair it"
    )
    scrub.add_argument("path", help="replica store root to audit")
    scrub.add_argument("--manifest", required=True,
                       help="stored manifest recording the expected "
                            "fingerprints")
    scrub.add_argument("--cursor", default=None,
                       help="cursor file making bounded scrubs resumable "
                            "across invocations")
    scrub.add_argument("--max-entries", type=_positive(), default=None,
                       help="audit at most this many entries, parking the "
                            "cursor for the next invocation")
    scrub.add_argument("--rate-limit", type=_positive(), default=None,
                       help="bound the audit's read bandwidth "
                            "(bytes/second)")
    scrub.add_argument("--no-quarantine", action="store_true",
                       help="report divergence without copying evidence "
                            "into the quarantine directory")
    scrub.add_argument("--repair", metavar="SOURCE", default=None,
                       help="sync the damaged entries back from the "
                            "pristine collection directory SOURCE "
                            "(adaptive supervisor, full-transfer rescue)")
    scrub.add_argument("--json", action="store_true",
                       help="machine-readable output")
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
