"""Golden transcripts of the §7 broadcast protocol.

``tests/data/golden_broadcast.json`` pins, for a seeded corpus of fleets
and configurations, everything :func:`synchronize_broadcast` puts on the
wire:

* the sha256 and per-phase breakdown of the shared (multicast) stream;
* per client, the sha256 of its unicast transcript, its breakdown and
  roundtrips, and the sha256 of its reconstruction.

Transcripts are hashed like ``golden_core.json``'s (direction, phase,
bits, round and payload of every message, in send order).  Any refactor
of the broadcast walk must reproduce them byte for byte.  Regenerate the
file (only when the wire format changes on purpose) with::

    PYTHONPATH=src python -m tests.test_golden_broadcast
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.core import ProtocolConfig
from repro.core import broadcast as broadcast_module
from repro.core.broadcast import synchronize_broadcast
from repro.net.channel import SimulatedChannel
from tests.test_core_broadcast import make_fleet
from tests.test_golden_core import transcript_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_broadcast.json"


def corpus() -> dict[str, tuple[dict[str, bytes], bytes, ProtocolConfig | None]]:
    """Every golden case: ``name -> (client_files, server_data, config)``."""
    cases = {}
    for count, seed in ((5, 1), (8, 6)):
        cases[f"fleet-{count}-seed-{seed}"] = (*make_fleet(count, seed=seed),
                                               None)
    _clients, current = make_fleet(1, seed=4)
    cases["heterogeneous-sizes"] = (
        {
            "empty": b"",
            "tiny": current[:50],
            "half": current[: len(current) // 2],
            "superset": current + b"extra trailing bytes",
        },
        current,
        None,
    )
    clients, _current = make_fleet(2, seed=9)
    cases["empty-server-file"] = ({**clients, "empty": b""}, b"", None)
    clients, current = make_fleet(2, seed=2)
    cases["already-current"] = ({**clients, "fresh": current}, current, None)
    _clients, current = make_fleet(1, seed=3)
    stale = random.Random(3).randbytes(20000)
    cases["disjoint-client"] = ({"lost": stale}, current, None)
    cases["no-clients"] = ({}, current, None)

    clients, current = make_fleet(3, seed=5)
    cells = {
        "no-decomposable": ProtocolConfig(use_decomposable=False),
        "small-blocks": ProtocolConfig(start_block_size=512,
                                       min_block_size=32),
        "verify-trivial": ProtocolConfig(verification="trivial"),
        "verify-group3": ProtocolConfig(verification="group3"),
        "one-candidate": ProtocolConfig(max_candidate_positions=1),
        "weak-hashes": ProtocolConfig(global_hash_bits=8,
                                      verification="light"),
    }
    for name, config in cells.items():
        cases[f"config-{name}"] = (clients, current, config)
    return cases


def fixture_for(clients: dict[str, bytes], server: bytes, config) -> dict:
    """Run one case, recording every channel the broadcast opens."""
    channels: list[SimulatedChannel] = []

    def recording_channel(*args, **kwargs) -> SimulatedChannel:
        channel = SimulatedChannel(*args, **kwargs)
        channel.recorder = []
        channels.append(channel)
        return channel

    with mock.patch.object(broadcast_module, "SimulatedChannel",
                           recording_channel):
        report = synchronize_broadcast(clients, server, config)
    by_stats = {id(channel.stats): channel for channel in channels}
    fixture = {"clients": {}}
    if clients:
        shared = by_stats[id(report.shared_stats)]
        fixture["shared_sha256"] = transcript_digest(shared.recorder)
        fixture["shared_breakdown"] = report.shared_stats.breakdown()
    for name in sorted(clients):
        assert report.reconstructed[name] == server, name
        stats = report.per_client_stats[name]
        fixture["clients"][name] = {
            "transcript_sha256": transcript_digest(
                by_stats[id(stats)].recorder
            ),
            "breakdown": stats.breakdown(),
            "roundtrips": stats.roundtrips,
            "total_bytes": stats.total_bytes,
            "reconstruction_sha256": hashlib.sha256(
                report.reconstructed[name]
            ).hexdigest(),
        }
    return fixture


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


CASES = corpus()


def test_corpus_matches_golden_keys():
    assert sorted(CASES) == sorted(_golden())


@pytest.mark.parametrize("case", sorted(CASES))
def test_reproduces_golden(case):
    clients, server, config = CASES[case]
    assert fixture_for(clients, server, config) == _golden()[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                name: fixture_for(clients, server, config)
                for name, (clients, server, config) in sorted(CASES.items())
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
