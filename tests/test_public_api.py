"""Public-API surface and documentation consistency checks."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).parent.parent


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_semver(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_subpackage_all_names_resolve(self):
        import repro.bench
        import repro.collection
        import repro.core
        import repro.delta
        import repro.grouptesting
        import repro.hashing
        import repro.io
        import repro.multiround
        import repro.net
        import repro.rsync
        import repro.theory
        import repro.workloads

        for module in (
            repro.bench,
            repro.collection,
            repro.core,
            repro.delta,
            repro.grouptesting,
            repro.hashing,
            repro.io,
            repro.multiround,
            repro.net,
            repro.rsync,
            repro.theory,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_each_protocol_step_has_one_implementation(self):
        """Deleted twins stay deleted: rsync's Adler checksum is
        ``DecomposableAdler.identity()``, verification is
        ``LaneChannels.verify``, a supervised file is ``sync_file``, the
        delta scan is ``_scan_chunked`` with no probe picking another,
        a link's time is ``LinkModel.transfer_seconds``, and every
        protocol finishes through ``integrity_endgame``: the core
        protocol has no collision retry, and the integrity fields are
        declared once, on ``IntegrityOutcome``."""
        import dataclasses

        import repro.core.verification
        import repro.delta.matcher
        import repro.hashing
        from repro.core import ProtocolConfig
        from repro.core.protocol import CoreSyncSession, SyncResult
        from repro.core.repair import IntegrityOutcome
        from repro.multiround.protocol import MultiroundResult
        from repro.net import LinkModel
        from repro.resilience import SyncSupervisor
        from repro.rsync.protocol import RsyncResult

        for module, name in (
            (repro.hashing, "AdlerRolling"),
            (repro.hashing, "KarpRabinRolling"),
            (repro.hashing, "RollingHash"),
            (repro.core.verification, "VerificationPools"),
            (repro.core.verification, "make_units"),
            (SyncSupervisor, "sync_named_file"),
            (repro.delta.matcher, "_copy_dominated"),
            (repro.delta.matcher, "_PROBE_SAMPLES"),
            (repro.delta.matcher, "_PROBE_NOVEL_CUTOFF"),
            (LinkModel, "transfer_time"),
            (LinkModel, "transfer_time_directional"),
        ):
            assert not hasattr(module, name), name
        with pytest.raises(ImportError):
            import repro.hashing.rolling  # noqa: F401
        assert "collision_retries" not in {
            spec.name for spec in dataclasses.fields(ProtocolConfig)
        }
        assert not hasattr(CoreSyncSession(b"old", b"new"), "retry_config")
        integrity = {spec.name for spec in dataclasses.fields(IntegrityOutcome)}
        for result in (SyncResult, RsyncResult, MultiroundResult):
            assert issubclass(result, IntegrityOutcome), result
            assert not integrity & set(vars(result)["__annotations__"]), result

    def test_trimmed_option_surface_is_pinned(self):
        """Settable values only tests set are module constants: their
        parameters stay gone, and the run's one link is the one
        ``sync_collection`` (or a scheduler) hands each lane."""
        import dataclasses
        import inspect

        from repro.collection import reconcile_manifests
        from repro.core import ProtocolConfig
        from repro.core.repair import integrity_endgame, repair_exchange
        from repro.multiround import MultiroundConfig
        from repro.parallel.executor import SyncExecutor
        from repro.resilience import (
            AdaptiveRetryPolicy,
            BreakerBoard,
            CircuitBreaker,
            LinkHealthMonitor,
            RetryPolicy,
            SyncSupervisor,
        )
        from repro.reuse import (
            BroadcastDeltaServer,
            SimilarityIndex,
            content_shingles,
            minhash_signature,
            sketch,
        )
        from repro.rsync import rsync_sync
        from repro.syncmethod import SyncMethod

        lane = ["self", "name", "old", "new", "recorder", "link"]
        pinned = {
            RetryPolicy: ["max_attempts"],
            AdaptiveRetryPolicy: ["max_attempts"],
            CircuitBreaker: ["failure_threshold"],
            BreakerBoard: ["failure_threshold"],
            LinkHealthMonitor: [],
            SyncSupervisor: [
                "method", "retry", "fault_plan", "checkpoints", "breakers",
                "deadline_s", "budget",
            ],
            SyncSupervisor.lane: lane,
            SyncMethod.lane: lane,
            reconcile_manifests: ["client", "server", "channel"],
            BroadcastDeltaServer: [
                "server_files", "memo", "dedup", "resemblance_threshold",
            ],
            SimilarityIndex: [],
            sketch: ["data"],
            content_shingles: ["data"],
            minhash_signature: ["shingles"],
            SyncExecutor: ["workers"],
            SyncExecutor.run: [
                "self", "method", "tasks", "capture_errors", "link",
            ],
            rsync_sync: [
                "old_data", "new_data", "block_size", "strong_bytes",
                "channel", "salt", "repair",
            ],
            integrity_endgame: [
                "channel", "reconstructed", "target", "expected_fingerprint",
                "repair", "leaf_size", "packed_signals",
            ],
            repair_exchange: [
                "channel", "damaged", "target", "expected_fingerprint",
                "leaf_size",
            ],
        }
        for item, parameters in pinned.items():
            assert list(inspect.signature(item).parameters) == parameters, item
        for config, removed in (
            (ProtocolConfig, "delta_coder"),
            (MultiroundConfig, "repair_fanout"),
        ):
            assert removed not in {
                spec.name for spec in dataclasses.fields(config)
            }

    def test_every_public_item_documented(self):
        """Every name exported at the top level carries a docstring."""
        for name in repro.__all__:
            if name == "__version__":
                continue
            item = getattr(repro, name)
            assert getattr(item, "__doc__", None), name


class TestDocumentationConsistency:
    def test_core_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         "LICENSE", "docs/API.md",
                         "docs/PROTOCOL.md", "docs/TUNING.md"):
            assert (REPO / filename).is_file(), filename

    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.finditer(r"`([a-z_]+\.py)`", readme):
            name = match.group(1)
            if name in ("setup.py",):
                continue
            assert (REPO / "examples" / name).is_file(), name

    def test_design_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(test_[a-z0-9_]+\.py)", design):
            assert (REPO / "benchmarks" / match.group(1)).is_file(), (
                match.group(1)
            )

    def test_experiments_result_names_exist_after_bench_run(self):
        """EXPERIMENTS.md references results files produced by benches;
        the bench modules that write them must exist (the files
        themselves appear after a bench run)."""
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        bench_sources = "\n".join(
            p.read_text() for p in (REPO / "benchmarks").glob("test_*.py")
        )
        for match in re.finditer(r"`((?:fig|table|ablation|technique|robustness)[a-z0-9_]+)`", experiments):
            name = match.group(1)
            assert f'"{name}"' in bench_sources, name

    def test_readme_lists_every_export_column(self):
        from repro.bench import ZdeltaMethod, run_method_on_collection

        run = run_method_on_collection(
            ZdeltaMethod(), {"a": b"old " * 64}, {"a": b"new " * 64}
        )
        readme = (REPO / "README.md").read_text()
        listed = set(re.findall(r"`([a-z0-9_]+)`", readme))
        assert set(run.row()) <= listed

    def test_design_modules_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"`repro\.([a-z_.]+)`", design):
            dotted = match.group(1).rstrip(".")
            path_parts = dotted.split(".")
            as_module = REPO / "src" / "repro" / Path(*path_parts)
            ok = (
                as_module.with_suffix(".py").is_file()
                or (as_module / "__init__.py").is_file()
            )
            assert ok, dotted
