"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro import cli
from repro.bench.methods import OursMethod
from repro.cli import build_parser, main
from repro.resilience import AdaptiveRetryPolicy, SyncSupervisor
from tests.conftest import make_version_pair


@pytest.fixture
def file_pair(tmp_path):
    old, new = make_version_pair(seed=70, nbytes=8000)
    old_path = tmp_path / "old.txt"
    new_path = tmp_path / "new.txt"
    old_path.write_bytes(old)
    new_path.write_bytes(new)
    return old_path, new_path


@pytest.fixture
def dir_pair(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    (old_dir / "sub").mkdir(parents=True)
    (new_dir / "sub").mkdir(parents=True)
    old_a, new_a = make_version_pair(seed=71, nbytes=3000)
    (old_dir / "a.txt").write_bytes(old_a)
    (new_dir / "a.txt").write_bytes(new_a)
    (old_dir / "sub" / "same.txt").write_bytes(b"unchanged")
    (new_dir / "sub" / "same.txt").write_bytes(b"unchanged")
    (new_dir / "added.txt").write_bytes(b"brand new file")
    return old_dir, new_dir


class TestSyncCommand:
    def test_file_pair(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "bytes on wire" in out
        assert "1 changed" in out

    def test_directory_pair(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 changed, 1 unchanged" in out

    def test_json_output(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ours"
        assert payload["total_bytes"] > 0
        assert payload["files_changed"] == 1

    @pytest.mark.parametrize("method", ["rsync", "rsync-opt", "zdelta",
                                        "vcdiff", "full"])
    def test_alternative_methods(self, file_pair, capsys, method):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path),
                     "--method", method]) == 0
        assert "bytes on wire" in capsys.readouterr().out

    def test_tuning_flags(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path),
            "--min-block", "32", "--continuation-min", "8",
            "--verification", "group3",
        ]) == 0

    def test_missing_path_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        existing = tmp_path / "real"
        existing.write_bytes(b"x")
        assert main(["sync", str(missing), str(existing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_reuse_counters_in_json(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("dedup_hits", "delta_memo_hits", "delta_memo_misses",
                    "sibling_refs_used", "bytes_saved_vs_self_ref"):
            assert key in payload
        # Clean default run: the reuse layer stays inert.
        assert payload["dedup_hits"] == 0
        assert payload["sibling_refs_used"] == 0

    def test_sibling_refs_flag_detects_rename(self, tmp_path, capsys):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        content = bytes(range(256)) * 40
        (old_dir / "original.bin").write_bytes(content)
        (new_dir / "original.bin").write_bytes(content)
        (new_dir / "renamed.bin").write_bytes(content)
        assert main([
            "sync", str(old_dir), str(new_dir), "--json", "--sibling-refs",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dedup_hits"] == 1
        assert payload["added_bytes"] == 0

    def test_resume_without_checkpoint_dir_fails_cleanly(
        self, dir_pair, capsys
    ):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--resume"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "durable checkpoint location" in err


class TestBatchedSync:
    """A window of at least the changed-file count batches them all."""

    def test_batched_directory(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--pipeline",
                     "--window", "8"]) == 0
        assert "waves" in capsys.readouterr().out

    def test_batched_json(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--pipeline",
                     "--window", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ours"
        assert payload["pipelined"]
        assert payload["roundtrips_on_wire"] == payload["waves"] > 0

    def test_full_window_runs_any_method(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--pipeline",
                     "--window", "8", "--method", "rsync", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "rsync"
        assert payload["pipelined"]

    def test_batched_flag_is_gone(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        with pytest.raises(SystemExit) as exit_info:
            main(["sync", str(old_dir), str(new_dir), "--batched"])
        assert exit_info.value.code == 2
        assert "--batched" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_output(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["trace", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "round" in out
        assert "coverage" in out

    def test_trace_with_tuning(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["trace", str(old_path), str(new_path),
                     "--min-block", "32"]) == 0


class TestBenchCommand:
    def test_gcc_table(self, capsys):
        assert main(["bench", "--workload", "gcc", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("ours", "rsync", "zdelta"):
            assert name in out

    def test_web_table(self, capsys):
        assert main(["bench", "--workload", "web", "--scale", "0.1"]) == 0
        assert "ours" in capsys.readouterr().out


#: Every option string of ``repro sync``: removing or renaming a flag
#: must be a deliberate change to this set.
SYNC_FLAGS = {
    "-h", "--help", "--method", "--min-block", "--continuation-min",
    "--verification", "--rsync-block", "--json", "--workers",
    "--pipeline", "--window",
    "--sibling-refs", "--fault-rate",
    "--fault-seed", "--on-error", "--retries", "--adaptive-retry",
    "--deadline", "--run-deadline", "--breaker-threshold",
    "--checkpoint-dir", "--resume", "--output",
}

#: Every option string of ``repro bench``, which has no sub-commands.
BENCH_FLAGS = {"-h", "--help", "--workload", "--scale", "--seed", "--workers"}

#: Every option string of ``repro scrub``, which audits one store.
SCRUB_FLAGS = {
    "-h", "--help", "--manifest", "--cursor", "--max-entries",
    "--rate-limit", "--no-quarantine", "--repair", "--json",
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def _subcommand(name: str) -> argparse.ArgumentParser:
    return _subcommands()[name]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_subcommand_set_is_pinned(self):
        assert set(_subcommands()) == {
            "bench", "manifest", "recover", "scrub", "sync", "trace",
        }

    def test_sync_flag_set_is_pinned(self):
        flags = {
            option
            for action in _subcommand("sync")._actions
            for option in action.option_strings
        }
        assert flags == SYNC_FLAGS

    def test_bench_flag_set_is_pinned(self):
        actions = _subcommand("bench")._actions
        assert not any(
            isinstance(action, argparse._SubParsersAction)
            for action in actions
        )
        flags = {
            option for action in actions for option in action.option_strings
        }
        assert flags == BENCH_FLAGS

    def test_scrub_flag_set_is_pinned(self):
        actions = _subcommand("scrub")._actions
        flags = {
            option for action in actions for option in action.option_strings
        }
        assert flags == SCRUB_FLAGS
        (path,) = [action for action in actions if not action.option_strings]
        assert path.dest == "path" and path.required
        assert next(
            action for action in actions if action.dest == "manifest"
        ).required

    @pytest.mark.parametrize(
        "argv", [["chaos"], ["scrub", "--soak"]], ids=" ".join
    )
    def test_soak_commands_are_gone(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--pipeline", "--window", "0"],
            ["--window", "0"],
            ["--retries", "0", "--fault-rate", "0.1"],
            ["--breaker-threshold", "0", "--fault-rate", "0.1"],
            ["--deadline", "-1"],
            ["--run-deadline", "-5"],
            ["--workers", "-1"],
            ["--method", "rsync", "--rsync-block", "0"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_out_of_range_value_is_a_usage_error(
        self, dir_pair, capsys, flags
    ):
        old_dir, new_dir = dir_pair
        with pytest.raises(SystemExit) as exit_info:
            main(["sync", str(old_dir), str(new_dir), *flags])
        assert exit_info.value.code == 2
        assert "must be >" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["2", "-0.5", "nan", "inf"])
    def test_fault_rate_outside_unit_interval_is_a_usage_error(
        self, dir_pair, capsys, rate
    ):
        old_dir, new_dir = dir_pair
        with pytest.raises(SystemExit) as exit_info:
            main(["sync", str(old_dir), str(new_dir), "--fault-rate", rate])
        assert exit_info.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-entries", "0"],
            ["--max-entries", "-3"],
            ["--rate-limit", "0"],
            ["--rate-limit", "-1"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_scrub_out_of_range_value_is_a_usage_error(
        self, tmp_path, capsys, flags
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "scrub", str(tmp_path),
                "--manifest", str(tmp_path / "m.bin"), *flags,
            ])
        assert exit_info.value.code == 2
        assert "must be >" in capsys.readouterr().err

    def test_unknown_method_rejected(self, file_pair):
        old_path, new_path = file_pair
        with pytest.raises(SystemExit):
            main(["sync", str(old_path), str(new_path), "--method", "nope"])


class TestAdaptiveFlags:
    def test_adaptive_sync_text_output(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main([
            "sync", str(old_dir), str(new_dir),
            "--adaptive-retry", "--breaker-threshold", "3",
            "--deadline", "3600",
        ]) == 0
        out = capsys.readouterr().out
        assert "link health" in out
        assert "1.00 score" in out  # clean link: the untouched default

    def test_adaptive_json_counters(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path),
            "--json", "--adaptive-retry",
        ]) == 0
        run = json.loads(capsys.readouterr().out)
        assert run["health_score"] == 1.0
        assert run["breaker_opens"] == 0
        assert run["deadline_salvages"] == 0
        assert run["adaptive_backoff_s"] == 0.0

    def test_clean_run_output_identical_with_and_without_layer(
        self, dir_pair, capsys
    ):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([
            "sync", str(old_dir), str(new_dir), "--json",
            "--adaptive-retry", "--breaker-threshold", "3",
            "--deadline", "3600", "--run-deadline", "100000",
        ]) == 0
        adaptive = json.loads(capsys.readouterr().out)
        # workers differ by design (a run budget forces serial); timing
        # and the process-global hash caches are volatile between runs.
        volatile = ("workers", "cpu_seconds", "cache_hits", "cache_misses",
                    "ref_cache_hits", "ref_cache_misses",
                    "delta_memo_hits", "delta_memo_misses",
                    "elapsed_seconds", "p50_file_seconds",
                    "p95_file_seconds")
        for key in volatile:
            plain.pop(key)
            adaptive.pop(key)
        assert adaptive == plain

    def test_adaptive_retry_runs_one_attempt_per_rung(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--adaptive-retry --retries 1``: the AIMD policy takes the
        static schedule, so every file fails each rung at most once and
        its retry count is the index of the rung that delivered it."""
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        for index in range(4):
            old, new = make_version_pair(seed=80 + index, nbytes=6000)
            (old_dir / f"f{index}.bin").write_bytes(old)
            (new_dir / f"f{index}.bin").write_bytes(new)
        runs = []
        real = cli.run_method_on_collection

        def spy(method, *args, **kwargs):
            runs.append((method.retry, real(method, *args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(cli, "run_method_on_collection", spy)
        assert main([
            "sync", str(old_dir), str(new_dir), "--json",
            "--adaptive-retry", "--retries", "1",
            "--fault-rate", "0.3", "--fault-seed", "3",
        ]) == 0
        capsys.readouterr()
        ((policy, run),) = runs
        assert isinstance(policy, AdaptiveRetryPolicy)
        assert policy.max_attempts == 1
        rungs = [OursMethod().name] + [
            rung.name for rung in SyncSupervisor(OursMethod()).ladder
        ]
        report = run.report
        assert report.total_retries > 0
        for name in report.per_file:
            delivered_by = report.fallbacks.get(name, rungs[0])
            assert report.retries.get(name, 0) == rungs.index(delivered_by)


class TestPipelineFlag:
    def test_pipeline_keeps_on_error_and_fault_injection(
        self, tmp_path, capsys
    ):
        """``--pipeline`` runs the same per-file driver as the sequential
        path: at ``--window 1`` only the link/pipeline keys may differ."""
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        for index in range(4):
            old, new = make_version_pair(seed=80 + index, nbytes=6000)
            (old_dir / f"f{index}.bin").write_bytes(old)
            (new_dir / f"f{index}.bin").write_bytes(new)
        command = [
            "sync", str(old_dir), str(new_dir),
            "--fault-rate", "0.05", "--fault-seed", "3", "--json",
        ]
        assert main(command) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main([*command, "--pipeline", "--window", "1"]) == 0
        pipelined = json.loads(capsys.readouterr().out)
        assert sequential["retries"] > 0
        assert pipelined["pipelined"] and pipelined["waves"] > 0
        volatile = ("workers", "cpu_seconds", "cache_hits", "cache_misses",
                    "ref_cache_hits", "ref_cache_misses",
                    "delta_memo_hits", "delta_memo_misses",
                    "elapsed_seconds", "p50_file_seconds",
                    "p95_file_seconds")
        link = ("pipelined", "waves", "mux_overhead_bytes",
                "roundtrips_on_wire", "link_wall_clock_s")
        for key in volatile + link:
            sequential.pop(key)
            pipelined.pop(key)
        assert pipelined == sequential
