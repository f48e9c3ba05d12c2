"""Tests for the on-disk manifest store and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.collection import (
    Manifest,
    ManifestFormatError,
    load_manifest,
    save_manifest,
)


@pytest.fixture
def manifest():
    return Manifest.of_collection(
        {"a.txt": b"alpha", "dir/b.txt": b"beta", "c.bin": b"\x00\xff"}
    )


class TestRoundtrip:
    def test_save_load(self, manifest, tmp_path):
        path = save_manifest(manifest, tmp_path / "m.txt")
        assert load_manifest(path).entries == manifest.entries

    def test_empty_manifest(self, tmp_path):
        path = save_manifest(Manifest({}), tmp_path / "m.txt")
        assert load_manifest(path).entries == {}

    def test_format_is_sorted_text(self, manifest, tmp_path):
        path = save_manifest(manifest, tmp_path / "m.txt")
        lines = path.read_text().splitlines()
        assert lines[0] == "repro-manifest v1"
        names = [line.split(" ", 1)[1] for line in lines[1:]]
        assert names == sorted(names)

    def test_names_with_spaces_survive(self, tmp_path):
        manifest = Manifest.of_collection({"name with spaces.txt": b"x"})
        path = save_manifest(manifest, tmp_path / "m.txt")
        assert "name with spaces.txt" in load_manifest(path).entries

    @pytest.mark.parametrize("name", ["cr\rname", "nel\x85name", "ls\u2028name"])
    def test_line_break_characters_other_than_newline_survive(
        self, name, tmp_path
    ):
        manifest = Manifest.of_collection({name: b"x", "plain.txt": b"y"})
        path = save_manifest(manifest, tmp_path / "m.txt")
        assert load_manifest(path).entries == manifest.entries

    def test_non_utf8_file_name_survives(self, tmp_path):
        """``os.fsdecode`` of a non-UTF-8 POSIX name carries surrogate
        escapes; the manifest stores the original bytes."""
        name = "bad\udcffname"
        manifest = Manifest.of_collection({name: b"x", "plain.txt": b"y"})
        path = save_manifest(manifest, tmp_path / "m.txt")
        assert b"bad\xffname" in path.read_bytes()
        assert load_manifest(path).entries == manifest.entries


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestFormatError):
            load_manifest(tmp_path / "missing.txt")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("not a manifest\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("repro-manifest v1\nnot-hex name\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_non_utf8_entry(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"repro-manifest v1\n\xff\xfe 00\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_short_fingerprint(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("repro-manifest v1\nabcd file\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "m.txt"
        fp = "00" * 16
        path.write_text(f"repro-manifest v1\n{fp} f\n{fp} f\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_newline_in_name_rejected_on_save(self, tmp_path):
        manifest = Manifest({"bad\nname": b"\x00" * 16})
        with pytest.raises(ManifestFormatError):
            save_manifest(manifest, tmp_path / "m.txt")

    def test_unencodable_name_rejected_on_save(self, tmp_path):
        manifest = Manifest({"lone\ud800surrogate": b"\x00" * 16})
        with pytest.raises(ManifestFormatError):
            save_manifest(manifest, tmp_path / "m.txt")
        assert not (tmp_path / "m.txt").exists()


class TestCli:
    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "data"
        (root / "sub").mkdir(parents=True)
        (root / "one.txt").write_bytes(b"one")
        (root / "sub" / "two.txt").write_bytes(b"two")
        return root

    def test_create_then_clean_diff(self, tree, tmp_path, capsys):
        manifest_path = tmp_path / "snap.manifest"
        assert main(["manifest", "create", str(tree),
                     "-o", str(manifest_path)]) == 0
        assert main(["manifest", "diff", str(manifest_path), str(tree)]) == 0
        out = capsys.readouterr().out
        assert "0 changed, 0 added, 0 removed" in out

    def test_diff_detects_changes(self, tree, tmp_path, capsys):
        manifest_path = tmp_path / "snap.manifest"
        main(["manifest", "create", str(tree), "-o", str(manifest_path)])
        capsys.readouterr()
        (tree / "one.txt").write_bytes(b"one-changed")
        (tree / "three.txt").write_bytes(b"new file")
        (tree / "sub" / "two.txt").unlink()
        assert main(["manifest", "diff", str(manifest_path), str(tree)]) == 0
        out = capsys.readouterr().out
        assert "M one.txt" in out
        assert "A three.txt" in out
        assert "D sub/two.txt" in out

    def test_diff_json(self, tree, tmp_path, capsys):
        manifest_path = tmp_path / "snap.manifest"
        main(["manifest", "create", str(tree), "-o", str(manifest_path)])
        capsys.readouterr()
        (tree / "one.txt").write_bytes(b"edited")
        assert main(["manifest", "diff", str(manifest_path), str(tree),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["changed"] == ["one.txt"]
        assert payload["unchanged"] == 1
