"""Checkpoint journal: record formats, durability, torn-tail tolerance."""

from __future__ import annotations

import random

import pytest

from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats
from repro.resilience import (
    CheckpointStore,
    RoundCheckpoint,
    SessionIdentity,
    SessionJournal,
    config_digest,
)
from repro.resilience.checkpoint import (
    _KIND_COMMIT,
    _encode_record,
    CheckpointFormatError,
)


def make_identity(tag: bytes = b"a") -> SessionIdentity:
    return SessionIdentity(
        protocol="ours",
        old_fingerprint=tag * 16,
        new_fingerprint=b"b" * 16,
        config_digest=b"c" * 16,
    )


def make_stats() -> TransferStats:
    channel = SimulatedChannel()
    channel.send(Direction.CLIENT_TO_SERVER, b"x" * 10, "map", bits=77)
    channel.send(Direction.SERVER_TO_CLIENT, b"y" * 5, "delta", bits=33)
    return channel.stats


class TestRecords:
    def test_identity_roundtrip(self):
        identity = make_identity()
        assert SessionIdentity.decode(identity.encode()) == identity

    def test_checkpoint_roundtrip(self):
        checkpoint = RoundCheckpoint.at_boundary(3, b"state", make_stats())
        again = RoundCheckpoint.decode(checkpoint.encode())
        assert again == checkpoint
        assert again.digest() == checkpoint.digest()

    def test_byte_accounting_matches_stats(self):
        stats = make_stats()
        checkpoint = RoundCheckpoint.at_boundary(1, b"", stats)
        assert checkpoint.total_bytes == stats.total_bytes
        assert (
            checkpoint.bytes_in_direction(Direction.CLIENT_TO_SERVER)
            == stats.client_to_server_bytes
        )

    def test_seed_stats_is_exact(self):
        """Seeding a fresh channel reproduces the checkpointed counters."""
        stats = make_stats()
        checkpoint = RoundCheckpoint.at_boundary(2, b"s", stats)
        fresh = SimulatedChannel().stats
        checkpoint.seed_stats(fresh)
        assert fresh.bits_by == stats.bits_by
        assert fresh.messages == stats.messages
        assert fresh.roundtrips == stats.roundtrips

    def test_config_digest_separates_configs(self):
        from repro.core import ProtocolConfig

        base = ProtocolConfig()
        assert config_digest(base) == config_digest(ProtocolConfig())
        assert config_digest(base) != config_digest(
            ProtocolConfig(min_block_size=32)
        )

    @pytest.mark.parametrize(
        "decode", [RoundCheckpoint.decode, SessionIdentity.decode]
    )
    def test_random_bytes_raise_typed_error(self, decode):
        """Garbage records decode or raise CheckpointFormatError — never
        a bare ValueError or UnicodeDecodeError."""
        rng = random.Random(7)
        for _ in range(300):
            data = rng.randbytes(rng.randrange(64))
            try:
                decode(data)
            except CheckpointFormatError:
                pass

    def test_unknown_direction_rejected(self):
        checkpoint = RoundCheckpoint(1, b"", (("sideways", "map", 8),), 1, 1)
        with pytest.raises(CheckpointFormatError, match="direction"):
            RoundCheckpoint.decode(checkpoint.encode())


class TestJournalLifecycle:
    def test_record_requires_open(self):
        journal = SessionJournal(None)
        with pytest.raises(CheckpointFormatError):
            journal.record_round(1, b"", make_stats())

    def test_memory_journal_tracks_head(self):
        journal = SessionJournal(None)
        journal.open(make_identity())
        assert journal.head() is None
        journal.record_round(1, b"one", make_stats())
        journal.record_round(2, b"two", make_stats())
        assert journal.head().round_index == 2
        journal.commit()
        assert journal.head() is None

    def test_reopen_same_identity_keeps_head(self):
        journal = SessionJournal(None)
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        journal.open(make_identity())  # same identity: no-op
        assert journal.head() is not None

    def test_reopen_different_identity_discards_head(self):
        journal = SessionJournal(None)
        journal.open(make_identity(b"a"))
        journal.record_round(1, b"one", make_stats())
        journal.open(make_identity(b"z"))
        assert journal.head() is None


class TestDurability:
    def test_resume_across_instances(self, tmp_path):
        path = tmp_path / "file.ckpt"
        writer = SessionJournal(path)
        writer.open(make_identity())
        writer.record_round(1, b"one", make_stats())
        saved = writer.record_round(2, b"two", make_stats())
        assert writer.bytes_written == path.stat().st_size

        reader = SessionJournal(path)
        reader.open(make_identity(), resume=True)
        head = reader.head()
        assert head is not None
        assert head.round_index == 2
        assert head.digest() == saved.digest()

    def test_resume_requires_matching_identity(self, tmp_path):
        path = tmp_path / "file.ckpt"
        writer = SessionJournal(path)
        writer.open(make_identity(b"a"))
        writer.record_round(1, b"one", make_stats())

        reader = SessionJournal(path)
        reader.open(make_identity(b"z"), resume=True)
        assert reader.head() is None

    def test_resume_without_flag_starts_fresh(self, tmp_path):
        path = tmp_path / "file.ckpt"
        writer = SessionJournal(path)
        writer.open(make_identity())
        writer.record_round(1, b"one", make_stats())

        reader = SessionJournal(path)
        reader.open(make_identity(), resume=False)
        assert reader.head() is None

    def test_commit_removes_journal(self, tmp_path):
        path = tmp_path / "file.ckpt"
        journal = SessionJournal(path)
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        assert path.exists()
        journal.commit()
        assert not path.exists()

    def test_commit_record_refuses_resume(self, tmp_path):
        """A leftover COMMIT record means the session finished — there is
        nothing to salvage even though round records precede it."""
        path = tmp_path / "file.ckpt"
        journal = SessionJournal(path)
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        with open(path, "ab") as handle:
            handle.write(_encode_record(_KIND_COMMIT, b""))

        reader = SessionJournal(path)
        reader.open(make_identity(), resume=True)
        assert reader.head() is None

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_torn_tail_falls_back_to_previous_round(self, tmp_path, cut):
        """A crash mid-append tears only the last record; the loader
        resumes from the previous intact round."""
        path = tmp_path / "file.ckpt"
        journal = SessionJournal(path)
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        intact = path.stat().st_size
        journal.record_round(2, b"two", make_stats())

        raw = path.read_bytes()
        path.write_bytes(raw[: intact + cut])  # tear record 2 mid-frame
        reader = SessionJournal(path)
        reader.open(make_identity(), resume=True)
        assert reader.head().round_index == 1

    def test_corrupt_record_stops_the_scan(self, tmp_path):
        path = tmp_path / "file.ckpt"
        journal = SessionJournal(path)
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        intact = path.stat().st_size
        journal.record_round(2, b"two", make_stats())

        raw = bytearray(path.read_bytes())
        raw[intact + 9] ^= 0xFF  # flip a byte inside record 2
        path.write_bytes(bytes(raw))
        reader = SessionJournal(path)
        reader.open(make_identity(), resume=True)
        assert reader.head().round_index == 1

    def test_garbage_journal_is_refused(self, tmp_path):
        path = tmp_path / "file.ckpt"
        path.write_bytes(b"not a journal at all")
        reader = SessionJournal(path)
        reader.open(make_identity(), resume=True)
        assert reader.head() is None


class TestCheckpointStore:
    def test_memory_store_yields_unnamed_journals(self):
        store = CheckpointStore.in_memory()
        assert store.journal("x").path is None
        assert store.pending() == []

    def test_names_map_to_distinct_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        paths = {
            store.journal(name).path
            for name in ("src/a.c", "src/b.c", "src_a.c", None, "")
        }
        assert len(paths) == 4  # None and "" share the anonymous journal
        for path in paths:
            assert path.parent == tmp_path
            assert path.suffix == ".ckpt"

    def test_hostile_names_stay_inside_root(self, tmp_path):
        store = CheckpointStore(tmp_path)
        journal = store.journal("../../etc/passwd")
        assert journal.path.parent == tmp_path

    def test_pending_lists_unfinished_journals(self, tmp_path):
        store = CheckpointStore(tmp_path)
        journal = store.journal("a.txt")
        journal.open(make_identity())
        journal.record_round(1, b"one", make_stats())
        assert store.pending() == [journal.path]
        journal.commit()
        assert store.pending() == []

    def test_store_is_picklable(self, tmp_path):
        import pickle

        store = CheckpointStore(tmp_path, resume=True)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.resume is True
