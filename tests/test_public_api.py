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
        and a link's time is ``LinkModel.transfer_seconds``."""
        import repro.core.verification
        import repro.delta.matcher
        import repro.hashing
        from repro.net import LinkModel
        from repro.resilience import SyncSupervisor

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
