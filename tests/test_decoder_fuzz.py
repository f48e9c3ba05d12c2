"""One fuzz table over every decoder of wire and disk bytes.

Each decoder takes untrusted bytes.  For arbitrary input, and for
truncations and single-byte mutations of valid payloads, it must return
a value or raise its own :class:`~repro.exceptions.ReproError` subclass
— never a bare ``ValueError``/``IndexError`` — within the hypothesis
deadline.  The collision fault plan is in the table too: it parses delta
payloads it did not build and must pass anything it cannot read through
untouched, so it may raise nothing at all.  So is the scrub cursor: it
reads any bytes as a name (or restarts the pass on a foreign header)
instead of raising.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import (
    Manifest,
    ManifestFormatError,
    StoreScrubber,
    load_manifest,
    save_manifest,
)
from repro.collection.reconcile import _Trie, _read_entries, _write_entries
from repro.core import ProtocolConfig
from repro.core.client import ClientSession
from repro.core.protocol import CoreSyncSession
from repro.core.server import ServerSession
from repro.core.snapshot import restore_round_state, snapshot_round_state
from repro.delta import vcdiff_decode, vcdiff_encode, zdelta_decode, zdelta_encode
from repro.exceptions import DeltaFormatError, FrameCorruptionError, ProtocolError
from repro.io.bitstream import BitReader, BitWriter
from repro.multiround import multiround_rsync_sync
from repro.multiround.protocol import decode_round_state
from repro.net.channel import SimulatedChannel
from repro.net.faults import CollisionFaultPlan
from repro.net.frame import decode_mux_batch, encode_mux_batch
from repro.resilience.checkpoint import (
    CheckpointFormatError,
    RoundCheckpoint,
    SessionIdentity,
)
from repro.rsync import rsync_sync
from repro.rsync.protocol import _parse_signatures, decode_tokens
from tests.conftest import core_round, make_version_pair

OLD, NEW = make_version_pair(seed=123, nbytes=3000, edits=3)
MUX_LANES = 3


@dataclass(frozen=True)
class Decoder:
    decode: Callable[[bytes], object]
    #: The typed errors it may raise; ``()`` means none.
    errors: tuple[type[Exception], ...]
    valid: Callable[[], list[bytes]]


def _sent(run, phase: str) -> list[bytes]:
    channel = SimulatedChannel()
    channel.recorder = []
    run(channel)
    return [m.payload for m in channel.recorder if m.phase == phase]


def _rsync(phase: str) -> list[bytes]:
    return _sent(lambda channel: rsync_sync(OLD, NEW, channel=channel), phase)


def _multiround_delta() -> list[bytes]:
    return _sent(
        lambda channel: multiround_rsync_sync(OLD, NEW, channel=channel),
        "delta",
    )


class _Payloads:
    def __init__(self) -> None:
        self.payloads: list[bytes] = []

    def record_round(self, round_index, payload, stats) -> None:
        self.payloads.append(payload)


def _multiround_states() -> list[bytes]:
    recorder = _Payloads()
    multiround_rsync_sync(OLD, NEW, checkpointer=recorder)
    return recorder.payloads


def _core_snapshots() -> list[bytes]:
    session = CoreSyncSession(OLD, NEW)
    channel = SimulatedChannel()
    session.start(channel)
    payloads = []
    while not session.done:
        core_round(session, channel)
        payloads.append(
            snapshot_round_state(
                session.client, session.server, session.rounds, 0, 0
            )
        )
    return payloads


def _restore(payload: bytes):
    config = ProtocolConfig()
    return restore_round_state(
        payload, ClientSession(OLD, config), ServerSession(NEW, config)
    )


def _round_checkpoints() -> list[bytes]:
    channel = SimulatedChannel()
    rsync_sync(OLD, NEW, channel=channel)
    return [
        RoundCheckpoint.at_boundary(3, b"state", channel.stats).encode(),
        RoundCheckpoint(0, b"", (), 0, 0).encode(),
    ]


def _resume_proposal(data: bytes) -> tuple[int, bytes]:
    """The resume handshake's proposal read (``resilience/recovery.py``)."""
    reader = BitReader(data)
    return reader.read_uvarint(), reader.read_bytes(16)


def _resume_proposals() -> list[bytes]:
    payloads = []
    for round_index in (0, 3, 300):
        writer = BitWriter()
        writer.write_uvarint(round_index)
        writer.write_bytes(bytes(range(16)))
        payloads.append(writer.getvalue())
    return payloads


_SCRUB_DIR = tempfile.TemporaryDirectory()
_SCRUBBER = StoreScrubber(
    _SCRUB_DIR.name, Manifest(), cursor_path=f"{_SCRUB_DIR.name}/cursor"
)


def _read_cursor(data: bytes) -> str | None:
    """Write ``data`` as the scrub cursor file and read it back."""
    _SCRUBBER.cursor_path.write_bytes(data)
    return _SCRUBBER.read_cursor()


def _scrub_cursors() -> list[bytes]:
    _SCRUBBER._write_cursor("d0/f01.bin")
    return [_SCRUBBER.cursor_path.read_bytes()]


def _load_manifest(data: bytes):
    """Write ``data`` as a manifest file and load it."""
    path = Path(_SCRUB_DIR.name, "manifest")
    path.write_bytes(data)
    return load_manifest(path)


def _manifests() -> list[bytes]:
    path = Path(_SCRUB_DIR.name, "manifest")
    files = {"a.txt": b"alpha", "d/cr\rname": b"beta", "ls\u2028 \x85": b""}
    save_manifest(Manifest.of_collection(files), path)
    return [path.read_bytes()]


def _reconcile_entries() -> list[bytes]:
    """Leaf entry lists as the trie ships them, one non-UTF-8 name
    among them."""
    files = {"a.txt": b"alpha", "bad\udcffname": b"beta", "d/\u00e9": b""}
    entries = _Trie(Manifest.of_collection(files)).range(0, 0)
    payloads = []
    for leaf in (entries, entries[:1], []):
        writer = BitWriter()
        _write_entries(writer, leaf)
        payloads.append(writer.getvalue())
    return payloads


def _collide(payload: bytes) -> bytes:
    return CollisionFaultPlan(seed=5).collide(payload, "delta")


def _collide_stream(stream: bytes) -> tuple[bytes, bytes]:
    """Feed a raw token stream, compressed, with and without the rsync
    fingerprint prefix, so the mutation reaches the token parser."""
    compressed = zlib.compress(stream)
    return _collide(compressed), _collide(b"\x00" * 16 + compressed)


def _token_streams() -> list[bytes]:
    return [zlib.decompress(payload) for payload in _multiround_delta()] + [
        zlib.decompress(payload[16:]) for payload in _rsync("delta")
    ]


DECODERS = {
    "zdelta": Decoder(
        lambda data: zdelta_decode(OLD, data),
        (DeltaFormatError,),
        lambda: [zdelta_encode(OLD, NEW)],
    ),
    "vcdiff": Decoder(
        lambda data: vcdiff_decode(OLD, data),
        (DeltaFormatError,),
        lambda: [vcdiff_encode(OLD, NEW)],
    ),
    "rsync-tokens": Decoder(
        decode_tokens,
        (DeltaFormatError,),
        lambda: [payload[16:] for payload in _rsync("delta")],
    ),
    "rsync-signatures": Decoder(
        _parse_signatures, (DeltaFormatError,), lambda: _rsync("signatures")
    ),
    "multiround-round-state": Decoder(
        lambda data: decode_round_state(data, len(OLD), len(NEW)),
        (ProtocolError,),
        _multiround_states,
    ),
    "core-snapshot": Decoder(_restore, (ProtocolError,), _core_snapshots),
    "checkpoint-identity": Decoder(
        SessionIdentity.decode,
        (CheckpointFormatError,),
        lambda: [SessionIdentity("ours", b"a" * 16, b"b" * 16, b"c" * 16).encode()],
    ),
    "checkpoint-round": Decoder(
        RoundCheckpoint.decode, (CheckpointFormatError,), _round_checkpoints
    ),
    "mux-batch": Decoder(
        lambda data: decode_mux_batch(data, MUX_LANES),
        (FrameCorruptionError,),
        lambda: [
            encode_mux_batch([[(12, b"ab")], [], [(8, b"c"), (0, b"")]]),
            encode_mux_batch([[], [(16, b"xy")], []]),
        ],
    ),
    "bitreader": Decoder(
        _resume_proposal, (ProtocolError,), _resume_proposals
    ),
    "collision-delta": Decoder(
        _collide, (), lambda: _rsync("delta") + _multiround_delta()
    ),
    "collision-tokens": Decoder(_collide_stream, (), _token_streams),
    "scrub-cursor": Decoder(_read_cursor, (), _scrub_cursors),
    "manifest": Decoder(_load_manifest, (ManifestFormatError,), _manifests),
    "reconcile-entries": Decoder(
        lambda data: _read_entries(BitReader(data)),
        (ProtocolError,),
        _reconcile_entries,
    ),
}

VALID = {name: decoder.valid() for name, decoder in DECODERS.items()}


def _check(name: str, data: bytes) -> None:
    decoder = DECODERS[name]
    try:
        decoder.decode(data)
    except decoder.errors:
        pass


def test_valid_payloads_decode():
    for name, payloads in VALID.items():
        assert payloads, name
        for payload in payloads:
            DECODERS[name].decode(payload)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.binary(max_size=200))
@settings(max_examples=150, deadline=2000)
def test_arbitrary_bytes(name, data):
    _check(name, data)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(draw=st.data())
@settings(max_examples=150, deadline=2000)
def test_truncated_valid_payloads(name, draw):
    payload = draw.draw(st.sampled_from(VALID[name]))
    _check(name, payload[: draw.draw(st.integers(0, len(payload)))])


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(draw=st.data())
@settings(max_examples=150, deadline=2000)
def test_mutated_valid_payloads(name, draw):
    payload = bytearray(draw.draw(st.sampled_from(VALID[name])))
    if payload:
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] = draw.draw(st.integers(0, 255))
    _check(name, bytes(payload))


@pytest.mark.parametrize(
    "name,data",
    [
        pytest.param("zdelta", b"\x5a", id="zdelta-no-length"),
        pytest.param("vcdiff", b"\x56\x80", id="vcdiff-truncated-length"),
        pytest.param(
            "rsync-tokens", zlib.compress(b"\x01\x80"), id="rsync-copy-varint"
        ),
        pytest.param("rsync-signatures", b"\x80", id="signature-header"),
        pytest.param("bitreader", b"", id="bitreader-empty"),
        pytest.param("bitreader", b"\xff" * 10, id="bitreader-long-uvarint"),
        pytest.param(
            "zdelta",
            b"\x5a" + bytes([len(zlib.compress(b"\x00\x00"))])
            + zlib.compress(b"\x00\x00") + b"\x08" + zlib.compress(b""),
            id="zdelta-empty-add",
        ),
        pytest.param(
            "zdelta",
            b"\x5a" + bytes([len(zlib.compress(b"\x01\x00\x00"))])
            + zlib.compress(b"\x01\x00\x00") + b"\x08" + zlib.compress(b""),
            id="zdelta-empty-copy",
        ),
        pytest.param(
            "vcdiff",
            b"\x56" + bytes([len(zlib.compress(b"\x01\x00\x00"))])
            + zlib.compress(b"\x01\x00\x00"),
            id="vcdiff-empty-copy",
        ),
    ],
)
def test_probe_raises_typed_error(name, data):
    with pytest.raises(DECODERS[name].errors):
        DECODERS[name].decode(data)


def test_non_utf8_scrub_cursor_reads_back_its_name():
    assert _read_cursor(_scrub_cursors()[0]) == "d0/f01.bin"
    assert (
        _read_cursor(b"repro-scrub-cursor v1\n\xff\xfe\x80name\n")
        == "\udcff\udcfe\udc80name"
    )
    assert _read_cursor(b"\xffrepro-scrub-cursor v1\nname\n") is None


def test_reconcile_entries_round_trip_non_utf8_names():
    manifest = Manifest.of_collection({"bad\udcffname": b"x", "ok": b"y"})
    leaf = _Trie(manifest).range(0, 0)
    writer = BitWriter()
    _write_entries(writer, leaf)
    assert _read_entries(BitReader(writer.getvalue())) == [
        (entry.name, entry.fingerprint) for entry in leaf
    ]
