"""Tests for sibling references and rename detection in sync_collection."""

from __future__ import annotations

import random
import zlib

from repro.bench.methods import OursMethod
from repro.collection.sync import sync_collection
from tests.test_faults_collection import _DoomedMethod


def _random_bytes(seed: int, nbytes: int = 8_192) -> bytes:
    return random.Random(seed).randbytes(nbytes)


def _edited(data: bytes, seed: int = 1, edits: int = 4) -> bytes:
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(edits):
        at = rng.randrange(len(out) - 100)
        out[at : at + 40] = rng.randbytes(60)
    return bytes(out)


class TestRenameDetection:
    def test_renamed_file_costs_zero_added_bytes(self):
        content = _random_bytes(2)
        client = {"old-name.bin": content}
        server = {"old-name.bin": content, "new-name.bin": content}
        report = sync_collection(
            client, server, OursMethod(), sibling_refs=True
        )
        assert report.dedup_hits == 1
        assert report.added_bytes == 0
        assert report.bytes_saved_vs_self_ref == len(
            zlib.compress(content, 9)
        )
        assert report.reconstructed == server

    def test_rename_detection_is_deterministic_on_twins(self):
        content = _random_bytes(3)
        client = {"b.bin": content, "a.bin": content}
        server = dict(client, **{"c.bin": content})
        report = sync_collection(
            client, server, OursMethod(), sibling_refs=True
        )
        assert report.dedup_hits == 1
        assert report.reconstructed == server


class TestSiblingReferences:
    def test_similar_sibling_beats_full_transfer(self):
        base = _random_bytes(5)
        client = {"base.bin": base}
        server = {"base.bin": base, "similar.bin": _edited(base, seed=7)}
        with_refs = sync_collection(
            client, server, OursMethod(), sibling_refs=True
        )
        without = sync_collection(client, server, OursMethod())
        assert with_refs.sibling_refs_used == 1
        assert with_refs.added_bytes < without.added_bytes
        assert with_refs.bytes_saved_vs_self_ref == (
            without.added_bytes - with_refs.added_bytes
        )
        assert with_refs.reconstructed == server

    def test_unrelated_added_file_falls_back_to_full(self):
        client = {"base.bin": _random_bytes(8)}
        server = dict(client, **{"new.bin": _random_bytes(9)})
        with_refs = sync_collection(
            client, server, OursMethod(), sibling_refs=True
        )
        without = sync_collection(client, server, OursMethod())
        assert with_refs.sibling_refs_used == 0
        # One uvarint 0 names the full transfer.
        assert with_refs.added_bytes == without.added_bytes + 1
        assert with_refs.reconstructed == server

    def test_empty_client_falls_back_to_full(self):
        server = {"a.bin": _random_bytes(10)}
        report = sync_collection({}, server, OursMethod(),
                                 sibling_refs=True)
        assert report.sibling_refs_used == 0
        assert report.added_bytes == len(
            zlib.compress(server["a.bin"], 9)
        )
        assert report.reconstructed == server

    def test_threshold_gates_the_sibling_path(self):
        """An added file resembling no shared file is sent in full."""
        base = _random_bytes(12)
        client = {"base.bin": base}
        unrelated = _random_bytes(13)
        server = dict(client, **{"unrelated.bin": unrelated})
        gated = sync_collection(
            client,
            server,
            OursMethod(),
            sibling_refs=True,
        )
        assert gated.sibling_refs_used == 0
        # The uvarint 0 naming the full transfer, then the payload.
        assert gated.added_bytes == 1 + len(zlib.compress(unrelated, 9))
        assert gated.reconstructed == server


class TestReferencesTheServerHolds:
    """A sibling must be bytes both sides hold when the added file is sent."""

    def _probe(self, sibling_of: bytes):
        old_a = _random_bytes(30, 20_000)
        new_a = _random_bytes(31, 20_000)
        added = bytearray(sibling_of)
        added[5_000:5_010] = b"0123456789"
        client = {"A": old_a}
        server = {"A": new_a, "B": bytes(added)}
        return server, sync_collection(
            client, server, OursMethod(), sibling_refs=True
        )

    def test_added_file_does_not_ride_on_a_replaced_version(self):
        """``B`` is a near-copy of the client's *old* ``A``, which the
        server replaced: it goes in full, behind the uvarint 0."""
        server, report = self._probe(sibling_of=_random_bytes(30, 20_000))
        assert report.sibling_refs_used == 0
        assert report.added_bytes == len(zlib.compress(server["B"], 9)) + 1
        assert report.reconstructed == server

    def test_added_file_rides_on_the_delivered_version(self):
        """A near-copy of the server's *new* ``A`` is a delta against it,
        and the uvarint naming ``A`` (index 0 + 1) is charged."""
        from repro.delta import zdelta_encode

        server, report = self._probe(sibling_of=_random_bytes(31, 20_000))
        assert report.sibling_refs_used == 1
        assert report.added_bytes == len(
            zdelta_encode(server["A"], server["B"])
        ) + 1
        assert report.bytes_saved_vs_self_ref == (
            len(zlib.compress(server["B"], 9)) - report.added_bytes
        )
        assert report.reconstructed == server

    def test_skipped_changed_file_is_no_sibling(self):
        """A changed file the update failed to deliver is held by the
        server only: its new version cannot serve as a reference."""
        base = _random_bytes(32)
        client = {"base.bin": _random_bytes(33), "other.bin": b"x" * 100}
        server = {
            "base.bin": b"POISON" + base,
            "other.bin": b"x" * 100,
            "similar.bin": b"POISON" + _edited(base, seed=34),
        }
        report = sync_collection(
            client,
            server,
            _DoomedMethod("POISON"),
            sibling_refs=True,
            on_error="skip",
        )
        assert "base.bin" in report.failed
        assert report.sibling_refs_used == 0
        assert report.reconstructed["similar.bin"] == server["similar.bin"]


class TestDefaultOffParity:
    def test_defaults_reproduce_pre_reuse_reports(self):
        """sibling_refs/delta_memo off: byte-for-byte the old behaviour."""
        base = _random_bytes(14)
        client = {"base.bin": base}
        server = {
            "base.bin": _edited(base, seed=15),
            "added.bin": _edited(base, seed=16),
        }
        report = sync_collection(client, server, OursMethod())
        assert report.added_bytes == len(
            zlib.compress(server["added.bin"], 9)
        )
        assert report.dedup_hits == 0
        assert report.sibling_refs_used == 0
        assert report.bytes_saved_vs_self_ref == 0
        assert report.delta_memo_hits == 0
        assert report.reconstructed == server
