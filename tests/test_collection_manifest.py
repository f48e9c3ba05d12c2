"""Tests for collection manifests and diffing."""

from __future__ import annotations

import pytest

from repro.collection import Manifest, ManifestFormatError, diff_manifests
from repro.collection.manifest import decode_name, encode_name


class TestManifest:
    def test_of_collection(self):
        manifest = Manifest.of_collection({"a": b"1", "b": b"2"})
        assert len(manifest) == 2
        assert len(manifest.entries["a"]) == 16

    def test_wire_bytes(self):
        manifest = Manifest.of_collection({"abc": b"x"})
        assert manifest.wire_bytes() == 3 + 1 + 16

    def test_empty(self):
        manifest = Manifest.of_collection({})
        assert manifest.wire_bytes() == 0


class TestNameCodec:
    def test_utf8_names_keep_their_bytes(self):
        for name in ("abc", "d/\u00e9t\u00e9.txt", "\u2028\x85"):
            assert encode_name(name) == name.encode("utf-8")
            assert decode_name(encode_name(name)) == name

    def test_escaped_bytes_round_trip(self):
        assert encode_name("bad\udcffname") == b"bad\xffname"
        assert decode_name(b"bad\xffname") == "bad\udcffname"
        assert Manifest.of_collection({"bad\udcffname": b""}).wire_bytes() == (
            len(b"bad\xffname") + 1 + 16
        )

    def test_unencodable_name_is_typed(self):
        with pytest.raises(ManifestFormatError):
            encode_name("lone\ud800")
        with pytest.raises(ManifestFormatError):
            Manifest.of_collection({"lone\ud800": b""}).wire_bytes()


class TestDiff:
    def test_classification(self):
        client = Manifest.of_collection(
            {"same": b"1", "edited": b"old", "gone": b"x"}
        )
        server = Manifest.of_collection(
            {"same": b"1", "edited": b"new", "fresh": b"y"}
        )
        diff = diff_manifests(client, server)
        assert diff.unchanged == ["same"]
        assert diff.changed == ["edited"]
        assert diff.added == ["fresh"]
        assert diff.removed == ["gone"]

    def test_identical_collections(self):
        files = {"a": b"1", "b": b"2"}
        manifest = Manifest.of_collection(files)
        diff = diff_manifests(manifest, manifest)
        assert diff.changed == [] and diff.added == [] and diff.removed == []
        assert diff.unchanged == ["a", "b"]

    def test_disjoint_collections(self):
        diff = diff_manifests(
            Manifest.of_collection({"a": b"1"}),
            Manifest.of_collection({"b": b"2"}),
        )
        assert diff.added == ["b"]
        assert diff.removed == ["a"]

    def test_lists_sorted(self):
        client = Manifest.of_collection({})
        server = Manifest.of_collection({"z": b"1", "a": b"2", "m": b"3"})
        assert diff_manifests(client, server).added == ["a", "m", "z"]
