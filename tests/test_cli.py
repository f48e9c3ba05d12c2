"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
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

    def test_delta_memo_flag_accepted(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path), "--delta-memo",
            "--resemblance-threshold", "0.7",
        ]) == 0
        assert "reuse" in capsys.readouterr().out

    def test_no_delta_memo_flag(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path), "--no-delta-memo",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_memo_hits"] == 0
        assert payload["delta_memo_misses"] == 0


class TestBatchedSync:
    def test_batched_directory(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched"]) == 0
        assert "ours-batched" in capsys.readouterr().out

    def test_batched_json(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ours-batched"

    def test_batched_requires_ours(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--method", "rsync"]) == 2
        assert "requires" in capsys.readouterr().err


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


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

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


class TestChaosCommand:
    def test_soak_matrix(self, capsys):
        assert main([
            "chaos", "--shapes", "bursty", "--seeds", "1",
            "--profile", "short",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos soak [short]" in out
        assert "bursty" in out

    def test_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "soak.json"
        assert main([
            "chaos", "--shapes", "degrading", "--seeds", "2",
            "--json", "--out", str(artifact),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_cells_consistent"] is True
        assert json.loads(artifact.read_text()) == payload

    def test_unknown_shape_rejected(self, capsys):
        assert main(["chaos", "--shapes", "lumpy"]) == 2
        assert "unknown shape" in capsys.readouterr().err
