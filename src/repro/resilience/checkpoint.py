"""Durable round checkpoints for resumable synchronization sessions.

Multi-round reconciliation accumulates state the link already paid for:
every completed round pins down map regions that never need to be hashed
again.  PR 2's supervisor nevertheless restarted a failed session from
round 0, re-buying all of it.  This module makes that accumulated state
*durable*: after each completed protocol round both endpoints snapshot
their reconciliation state into a journal record, and a later attempt
(same process or a restarted one) can continue from the last completed
round instead of from scratch.

Journal format
--------------
A journal is a sequence of CRC32-guarded frames (the exact framing of
:mod:`repro.net.frame`, reused so corruption detection is shared with the
wire path).  Each frame payload is one record::

    version (1 B) | kind (1 B) | kind-specific body (varint-serialized)

* ``HEADER`` — the session identity: protocol name, fingerprints of both
  files, and a digest of the protocol configuration.  A journal whose
  header does not match the session being resumed is refused.
* ``ROUND`` — one completed round: round index, an opaque
  protocol-specific state blob, and the cumulative transfer counters at
  the boundary (so a resumed run's accounting continues seamlessly).
* ``COMMIT`` — the session finished; any following resume attempt is
  refused (there is nothing left to salvage).

Records are append-only and each append is flushed and fsynced, so a
crash can at worst tear the *last* record — the loader stops at the
first short or CRC-failing frame and resumes from the previous round.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import FrameCorruptionError, ReproError, ResumeRefusedError
from repro.io.varint import VarintReader, encode_uvarint
from repro.net.frame import FRAME_OVERHEAD, decode_frame, encode_frame
from repro.net.metrics import Direction, TransferStats

#: Journal record format version; bumped when older readers could no
#: longer parse the records.
JOURNAL_VERSION = 1

_KIND_HEADER = 0x01
_KIND_ROUND = 0x02
_KIND_COMMIT = 0x03

_DIRECTIONS = frozenset(direction.value for direction in Direction)

#: Fault-injection hook for crash tests: when set to an integer N, the
#: process SIGKILLs itself immediately after durably writing its Nth
#: checkpoint record — modelling a crash between two protocol rounds.
CRASH_AFTER_CHECKPOINTS_ENV = "REPRO_CRASH_AFTER_CHECKPOINTS"
_checkpoints_written = 0


class CheckpointFormatError(ReproError):
    """A checkpoint journal could not be parsed (beyond a torn tail)."""


# ----------------------------------------------------------------------
# Varint-based serialization helpers (decoding: VarintReader)
# ----------------------------------------------------------------------

def _pack_bytes(out: bytearray, data: bytes) -> None:
    out += encode_uvarint(len(data))
    out += data


def _pack_str(out: bytearray, text: str) -> None:
    _pack_bytes(out, text.encode("utf-8"))


def config_digest(config: object) -> bytes:
    """16-byte digest of a configuration dataclass.

    ``repr`` of a (frozen) dataclass lists every field deterministically,
    so two endpoints (or two processes) agree on the digest exactly when
    they agree on every tunable — including hash seeds, which is what
    makes resumed hash exchanges comparable at all.
    """
    return hashlib.blake2b(repr(config).encode("utf-8"), digest_size=16).digest()


@dataclass(frozen=True)
class SessionIdentity:
    """What a checkpoint journal is *about*; resume requires equality.

    A head whose identity differs from the session being resumed — the
    file changed under us, a different protocol, different tunables —
    must be refused: its pinned regions describe a different exchange.
    """

    protocol: str
    old_fingerprint: bytes
    new_fingerprint: bytes
    config_digest: bytes

    def encode(self) -> bytes:
        out = bytearray()
        _pack_str(out, self.protocol)
        _pack_bytes(out, self.old_fingerprint)
        _pack_bytes(out, self.new_fingerprint)
        _pack_bytes(out, self.config_digest)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "SessionIdentity":
        reader = VarintReader(data, CheckpointFormatError)
        return cls(reader.text(), reader.blob(), reader.blob(), reader.blob())


@dataclass(frozen=True)
class RoundCheckpoint:
    """State of one session at a completed round boundary.

    ``payload`` is an opaque protocol-specific blob (the protocols define
    their own round-state serialization); the transfer counters record
    the cumulative wire traffic *up to* the boundary so a resumed channel
    can be seeded and the combined accounting stays byte-exact.
    """

    round_index: int
    payload: bytes
    bits_by: tuple[tuple[str, str, int], ...]  # (direction, phase, bits)
    messages: int
    roundtrips: int

    @classmethod
    def at_boundary(
        cls, round_index: int, payload: bytes, stats: TransferStats
    ) -> "RoundCheckpoint":
        bits = tuple(
            (direction.value, phase, nbits)
            for (direction, phase), nbits in sorted(
                stats.bits_by.items(),
                key=lambda item: (item[0][0].value, item[0][1]),
            )
        )
        return cls(round_index, payload, bits, stats.messages, stats.roundtrips)

    # -- accounting views ----------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum((nbits + 7) // 8 for _d, _p, nbits in self.bits_by)

    def bytes_in_direction(self, direction: Direction) -> int:
        return sum(
            (nbits + 7) // 8
            for d, _p, nbits in self.bits_by
            if d == direction.value
        )

    def seed_stats(self, stats: TransferStats) -> None:
        """Fold the checkpointed counters into a fresh channel's stats."""
        for d, phase, nbits in self.bits_by:
            stats.bits_by[(Direction(d), phase)] += nbits
        stats.messages += self.messages
        stats.roundtrips += self.roundtrips

    # -- serialization --------------------------------------------------
    def encode(self) -> bytes:
        out = bytearray()
        out += encode_uvarint(self.round_index)
        _pack_bytes(out, self.payload)
        out += encode_uvarint(len(self.bits_by))
        for direction, phase, nbits in self.bits_by:
            _pack_str(out, direction)
            _pack_str(out, phase)
            out += encode_uvarint(nbits)
        out += encode_uvarint(self.messages)
        out += encode_uvarint(self.roundtrips)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "RoundCheckpoint":
        reader = VarintReader(data, CheckpointFormatError)
        round_index = reader.uint()
        payload = reader.blob()
        bits = []
        for _ in range(reader.uint()):
            direction = reader.text()
            if direction not in _DIRECTIONS:
                raise CheckpointFormatError(
                    f"unknown direction {direction!r} in record"
                )
            bits.append((direction, reader.text(), reader.uint()))
        return cls(
            round_index, payload, tuple(bits), reader.uint(), reader.uint()
        )

    def digest(self) -> bytes:
        """16-byte fingerprint of the record, used by the resume handshake."""
        return hashlib.blake2b(self.encode(), digest_size=16).digest()


def _encode_record(kind: int, body: bytes) -> bytes:
    return encode_frame(bytes([JOURNAL_VERSION, kind]) + body)


def _iter_records(raw: bytes):
    """Yield ``(kind, body)`` for every intact record; stop at the first
    torn or corrupt frame (a crash can only tear the tail)."""
    offset = 0
    while offset + FRAME_OVERHEAD <= len(raw):
        length = int.from_bytes(raw[offset : offset + 4], "big")
        end = offset + FRAME_OVERHEAD + length
        if end > len(raw):
            return  # torn tail
        try:
            record = decode_frame(raw[offset:end])
        except FrameCorruptionError:
            return
        if len(record) < 2 or record[0] != JOURNAL_VERSION:
            return
        yield record[1], record[2:]
        offset = end


class SessionJournal:
    """Append-only checkpoint journal for one file's sync session.

    With a ``path`` the journal is durable: every record is appended,
    flushed and fsynced, so it survives a process crash and a later run
    can resume from it.  With ``path=None`` it is memory-only — resume
    still works across the retry attempts of one supervisor call (the
    common mid-session disconnect case) without touching the filesystem.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        #: Serialized bytes durably written by *this* journal instance.
        self.bytes_written = 0
        self._identity: SessionIdentity | None = None
        self._head: RoundCheckpoint | None = None
        self._header_written = False

    @property
    def identity(self) -> SessionIdentity | None:
        return self._identity

    # ------------------------------------------------------------------
    def open(self, identity: SessionIdentity, resume: bool = False) -> None:
        """Bind the journal to a session identity.

        With ``resume`` an existing on-disk journal whose header matches
        ``identity`` contributes its last intact round record as the
        resume head; anything else (missing, committed, mismatched or
        corrupt journal) starts fresh.  Re-opening under a *different*
        identity (a fallback-ladder rung taking over) always discards the
        previous head.
        """
        if self._identity == identity:
            return
        self._identity = identity
        self._head = None
        self._header_written = False
        if resume and self.path is not None and self.path.exists():
            stored, head = self._load(self.path)
            if stored == identity and head is not None:
                self._head = head
                self._header_written = True

    @staticmethod
    def _load(
        path: Path,
    ) -> tuple[SessionIdentity | None, RoundCheckpoint | None]:
        try:
            raw = path.read_bytes()
        except OSError:
            return None, None
        identity: SessionIdentity | None = None
        head: RoundCheckpoint | None = None
        try:
            for kind, body in _iter_records(raw):
                if kind == _KIND_HEADER:
                    identity = SessionIdentity.decode(body)
                elif kind == _KIND_ROUND:
                    head = RoundCheckpoint.decode(body)
                elif kind == _KIND_COMMIT:
                    head = None  # finished session: nothing to salvage
        except CheckpointFormatError:
            pass  # stop at the first undecodable record
        return identity, head

    # ------------------------------------------------------------------
    def head(self) -> RoundCheckpoint | None:
        """The last durable round checkpoint for the bound identity."""
        return self._head

    def record_round(
        self, round_index: int, payload: bytes, stats: TransferStats
    ) -> RoundCheckpoint:
        """Snapshot one completed round; returns the durable record."""
        if self._identity is None:
            raise CheckpointFormatError(
                "journal must be open()ed before recording rounds"
            )
        checkpoint = RoundCheckpoint.at_boundary(round_index, payload, stats)
        frames = bytearray()
        if not self._header_written:
            frames += _encode_record(_KIND_HEADER, self._identity.encode())
        frames += _encode_record(_KIND_ROUND, checkpoint.encode())
        self._append(bytes(frames), fresh=not self._header_written)
        self._header_written = True
        self._head = checkpoint
        self.bytes_written += len(frames)
        _crash_hook()
        return checkpoint

    def commit(self) -> None:
        """Mark the session complete; the journal is no longer needed."""
        self._head = None
        self._header_written = False
        if self.path is not None and self.path.exists():
            try:
                self.path.unlink()
            except OSError:
                # Best effort: a leftover committed journal is refused at
                # resume time anyway via the COMMIT record below.
                self._append(_encode_record(_KIND_COMMIT, b""), fresh=False)

    # ------------------------------------------------------------------
    def _append(self, frames: bytes, fresh: bool) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "wb" if fresh else "ab"
        with open(self.path, mode) as handle:
            handle.write(frames)
            handle.flush()
            os.fsync(handle.fileno())


def _crash_hook() -> None:
    """SIGKILL ourselves after N durable checkpoints (crash tests only)."""
    budget = os.environ.get(CRASH_AFTER_CHECKPOINTS_ENV)
    if budget is None:
        return
    global _checkpoints_written
    _checkpoints_written += 1
    if _checkpoints_written >= int(budget):
        os.kill(os.getpid(), signal.SIGKILL)


class CheckpointStore:
    """Factory of per-file session journals for a collection update.

    ``root=None`` keeps journals in memory (resume works across retry
    attempts within one process); a directory makes them durable, one
    file per collection entry, so a *restarted* run started with
    ``resume=True`` can pick every interrupted file up at its last
    completed round.  ``resume=True`` without a root raises
    :class:`~repro.exceptions.ResumeRefusedError`: there is nothing to
    resume *from*.  Instances are picklable and cheap, so the parallel
    executor can ship them to worker processes.
    """

    def __init__(self, root: str | Path | None = None, resume: bool = False) -> None:
        if resume and root is None:
            raise ResumeRefusedError(
                "resume=True needs a durable checkpoint location "
                "(a CheckpointStore with a root)"
            )
        self.root = Path(root) if root is not None else None
        self.resume = resume

    @classmethod
    def in_memory(cls) -> "CheckpointStore":
        return cls(None)

    def journal(self, name: str | None) -> SessionJournal:
        if self.root is None:
            return SessionJournal(None)
        self.root.mkdir(parents=True, exist_ok=True)
        label = name if name else "<unnamed>"
        slug = re.sub(r"[^A-Za-z0-9._-]", "_", label)[:80].strip("._") or "file"
        tag = hashlib.blake2b(label.encode("utf-8"), digest_size=8).hexdigest()
        return SessionJournal(self.root / f"{slug}-{tag}.ckpt")

    def pending(self) -> list[Path]:
        """Journal files currently on disk (crashed/unfinished sessions)."""
        if self.root is None or not self.root.exists():
            return []
        return sorted(self.root.glob("*.ckpt"))
