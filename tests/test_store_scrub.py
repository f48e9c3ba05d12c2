"""Tests for the anti-entropy store scrubber and its CLI surface."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.collection import (
    CollectionStore,
    Manifest,
    ScrubReport,
    StoreScrubber,
    save_manifest,
)
from repro.net.chaos import BitRotPlan
from repro.resilience import QUARANTINE_DIR
from tests.soak import run_scrub_soak


@pytest.fixture
def collection():
    rng = random.Random(31)
    return {
        f"d{i % 2}/f{i:02d}.bin": rng.randbytes(rng.randrange(1500, 6000))
        for i in range(10)
    }


@pytest.fixture
def store(tmp_path, collection):
    store = CollectionStore(tmp_path / "store")
    store.write_collection(collection)
    return store


@pytest.fixture
def manifest(collection):
    return Manifest.of_collection(collection)


class TestScrubDetection:
    def test_clean_store_scrubs_clean(self, store, manifest):
        report = StoreScrubber(store, manifest).scrub()
        assert report.completed and report.clean
        assert report.scanned == report.ok == 10
        assert report.bytes_read > 0
        assert report.quarantined == []

    def test_bit_rot_detected_and_quarantined(self, store, manifest):
        victims = BitRotPlan(seed=7, files_affected=2).apply(store.root)
        report = StoreScrubber(store, manifest).scrub()
        assert report.divergent == victims
        assert not report.clean
        assert len(report.quarantined) == 2
        for copy, name in zip(report.quarantined, victims):
            assert copy.parent.name == QUARANTINE_DIR
            # Copy mode: the rotten original stays as the delta base.
            assert store.path_for(name).is_file()
            assert copy.read_bytes() == store.read_file(name)

    def test_missing_file_detected(self, store, manifest):
        store.path_for("d0/f00.bin").unlink()
        report = StoreScrubber(store, manifest).scrub()
        assert report.missing == ["d0/f00.bin"]
        assert report.damaged == ["d0/f00.bin"]

    def test_no_quarantine_mode(self, store, manifest):
        BitRotPlan(seed=7).apply(store.root)
        report = StoreScrubber(store, manifest).scrub(quarantine=False)
        assert len(report.divergent) == 1
        assert report.quarantined == []
        assert not (store.root / QUARANTINE_DIR).exists()

    def test_validation(self, store, manifest):
        with pytest.raises(ValueError):
            StoreScrubber(store, manifest, rate_limit_bps=0)
        with pytest.raises(ValueError):
            StoreScrubber(store, manifest).scrub(max_entries=0)


class TestCursorResume:
    def test_bounded_slices_cover_the_pass_once(
        self, tmp_path, store, manifest
    ):
        cursor = tmp_path / "cursor"
        scrubber = StoreScrubber(store, manifest, cursor_path=cursor)
        slices = []
        while True:
            part = scrubber.scrub(max_entries=3)
            slices.append(part)
            if part.completed:
                break
        assert [s.scanned for s in slices] == [3, 3, 3, 1]
        assert sum(s.ok for s in slices) == 10
        # The completed pass resets the cursor for the next one.
        assert scrubber.read_cursor() is None
        assert not cursor.exists()

    def test_cursor_survives_process_restart(
        self, tmp_path, store, manifest
    ):
        cursor = tmp_path / "cursor"
        first = StoreScrubber(store, manifest, cursor_path=cursor)
        first.scrub(max_entries=4)
        assert cursor.is_file()
        # A brand-new scrubber (new process) picks up where it stopped.
        second = StoreScrubber(store, manifest, cursor_path=cursor)
        rest = second.scrub()
        assert rest.scanned == 6
        assert rest.completed

    def test_damage_behind_the_cursor_waits_for_next_pass(
        self, tmp_path, store, manifest
    ):
        cursor = tmp_path / "cursor"
        scrubber = StoreScrubber(store, manifest, cursor_path=cursor)
        scrubber.scrub(max_entries=5)
        BitRotPlan(seed=1).apply(store.root, names=["d0/f00.bin"])
        rest = scrubber.scrub()
        assert rest.divergent == []  # first entry is behind the cursor
        next_pass = scrubber.scrub()
        assert next_pass.divergent == ["d0/f00.bin"]

    def test_unrecognised_cursor_restarts(self, tmp_path, store, manifest):
        cursor = tmp_path / "cursor"
        cursor.write_text("some other format\n")
        scrubber = StoreScrubber(store, manifest, cursor_path=cursor)
        assert scrubber.read_cursor() is None
        assert scrubber.scrub().scanned == 10

    def test_cursor_name_with_line_separator_round_trips(
        self, tmp_path, store, manifest
    ):
        scrubber = StoreScrubber(
            store, manifest, cursor_path=tmp_path / "cursor"
        )
        scrubber._write_cursor("d0/a\u2028b\x85c.bin")
        assert scrubber.read_cursor() == "d0/a\u2028b\x85c.bin"

    def test_scrub_all_merges_slices(self, tmp_path, store, manifest):
        BitRotPlan(seed=7, files_affected=2).apply(store.root)
        scrubber = StoreScrubber(
            store, manifest, cursor_path=tmp_path / "cursor"
        )
        merged = scrubber.scrub_all()
        assert merged.completed
        assert merged.scanned == 10
        assert len(merged.divergent) == 2


class TestRateLimit:
    def test_throttle_sleeps_to_honour_budget(self, store, manifest):
        # Simulated time: reads are instant, sleeping advances the clock.
        now = [0.0]
        sleeps: list[float] = []

        def sleep(seconds: float) -> None:
            now[0] += seconds
            sleeps.append(seconds)

        scrubber = StoreScrubber(
            store,
            manifest,
            rate_limit_bps=1000,
            sleep=sleep,
            clock=lambda: now[0],
        )
        report = scrubber.scrub()
        assert report.throttle_s == pytest.approx(sum(sleeps))
        # Every byte was paid for at the configured rate.
        assert sum(sleeps) == pytest.approx(report.bytes_read / 1000)

    def test_no_limit_never_sleeps(self, store, manifest):
        def forbidden(_):  # pragma: no cover - failure path
            raise AssertionError("scrub slept without a rate limit")

        report = StoreScrubber(store, manifest, sleep=forbidden).scrub()
        assert report.throttle_s == 0.0


class TestRepair:
    def test_rotted_store_converges(self, store, manifest, collection):
        BitRotPlan(seed=7, files_affected=3, flips_per_file=2).apply(
            store.root
        )
        store.path_for("d1/f03.bin").unlink()
        scrubber = StoreScrubber(store, manifest)
        report = scrubber.scrub()
        repair = scrubber.repair(collection, report=report)
        assert repair.files_failed == 0
        for name, data in collection.items():
            assert store.read_file(name) == data
        assert scrubber.scrub_all(quarantine=False).clean

    def test_repair_without_report_rescans(self, store, manifest, collection):
        BitRotPlan(seed=9).apply(store.root)
        scrubber = StoreScrubber(store, manifest)
        scrubber.repair(collection)
        assert scrubber.scrub_all(quarantine=False).clean

    def test_repair_refuses_unknown_entries(self, store, manifest):
        store.path_for("d0/f00.bin").unlink()
        scrubber = StoreScrubber(store, manifest)
        with pytest.raises(ValueError, match="d0/f00.bin"):
            scrubber.repair({}, report=scrubber.scrub())

    def test_clean_report_is_a_cheap_noop(self, store, manifest, collection):
        scrubber = StoreScrubber(store, manifest)
        repair = scrubber.repair(collection, report=scrubber.scrub())
        assert repair.files_changed == 0
        assert repair.changed_transfer_bytes == 0

    def test_damaged_property(self, tmp_path):
        report = ScrubReport(
            root=tmp_path, divergent=["b", "a"], missing=["c", "a"]
        )
        assert report.damaged == ["a", "b", "c"]


class TestScrubCli:
    @pytest.fixture
    def cli_store(self, tmp_path, collection):
        store = CollectionStore(tmp_path / "store")
        store.write_collection(collection)
        manifest_path = tmp_path / "manifest.txt"
        save_manifest(Manifest.of_collection(collection), manifest_path)
        source = tmp_path / "source"
        for name, data in collection.items():
            path = source / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        return store, manifest_path, source

    def test_clean_scrub_exits_zero(self, cli_store, capsys):
        store, manifest_path, _ = cli_store
        code = main(
            ["scrub", str(store.root), "--manifest", str(manifest_path)]
        )
        assert code == 0
        assert "10 ok" in capsys.readouterr().out

    def test_divergence_exits_nonzero_json(self, cli_store, capsys):
        store, manifest_path, _ = cli_store
        BitRotPlan(seed=7).apply(store.root)
        code = main(
            ["scrub", str(store.root), "--manifest", str(manifest_path),
             "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert len(payload["divergent"]) == 1

    def test_repair_restores_and_exits_zero(self, cli_store, capsys):
        store, manifest_path, source = cli_store
        BitRotPlan(seed=7, files_affected=2).apply(store.root)
        code = main(
            ["scrub", str(store.root), "--manifest", str(manifest_path),
             "--repair", str(source)]
        )
        assert code == 0
        assert "repaired" in capsys.readouterr().out

    def test_repair_without_source_is_usage_error(self, cli_store, capsys):
        """``--repair`` takes the source as its value: without one the
        command stops at argument parsing, before the audit has
        quarantined anything."""
        store, manifest_path, _ = cli_store
        BitRotPlan(seed=7).apply(store.root)
        with pytest.raises(SystemExit) as exit_info:
            main(["scrub", str(store.root), "--manifest", str(manifest_path),
                  "--repair"])
        assert exit_info.value.code == 2
        assert "--repair" in capsys.readouterr().err
        assert not (store.root / QUARANTINE_DIR).exists()

    def test_missing_manifest_is_usage_error(self, cli_store, capsys):
        store, _, _ = cli_store
        with pytest.raises(SystemExit) as exit_info:
            main(["scrub", str(store.root)])
        assert exit_info.value.code == 2
        assert "--manifest" in capsys.readouterr().err


class TestScrubSoak:
    def test_every_seed_converges(self):
        """Bit rot plus one deleted file, scrubbed in resumable slices and
        repaired over a bursty faulty link: every seed of the short
        profile ends byte-identical to the source."""
        report = run_scrub_soak(seeds=(1, 2, 3), profile="short")
        assert [row.seed for row in report.rows] == [1, 2, 3]
        assert report.all_converged, report.render()


class TestRecoverPurge:
    @pytest.fixture
    def quarantined_store(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "good.bin").write_bytes(b"fine")
        (root / "orphan.bin.repro.tmp").write_bytes(b"torn write")
        return root

    def test_without_flag_quarantine_is_kept(self, quarantined_store, capsys):
        assert main(["recover", str(quarantined_store)]) == 0
        out = capsys.readouterr().out
        assert "--purge" in out
        quarantine = quarantined_store / QUARANTINE_DIR
        assert quarantine.is_dir()
        assert list(quarantine.iterdir())

    def test_with_flag_quarantine_is_emptied(self, quarantined_store, capsys):
        assert main(["recover", str(quarantined_store), "--purge",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["purged"]) == 1
        assert not (quarantined_store / QUARANTINE_DIR).exists()
        # The non-quarantine content is untouched.
        assert (quarantined_store / "good.bin").read_bytes() == b"fine"

    def test_purge_on_clean_store_is_noop(self, tmp_path, capsys):
        root = tmp_path / "clean"
        root.mkdir()
        assert main(["recover", str(root), "--purge", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["purged"] == []
