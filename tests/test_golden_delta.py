"""Golden payloads of the delta coders and the COPY/ADD token streams.

``tests/data/golden_delta.json`` pins two things.

``pairs``: for every distinct file pair of the core golden corpus
(:func:`tests.test_golden_core.corpus`, edge lengths included):

* the sha256 and length of the zdelta and the vcdiff payload;
* the sha256 of rsync's signature message and of its delta payload
  (16-byte fingerprint + zlib token stream).

Every payload must also decode back to the new file.

``collisions``: the sha256 of :class:`~repro.net.faults.CollisionFaultPlan`
mutations (seeds 0-7) of one rsync and one multiround delta payload,
each once with literals (the byte-flip branch) and once literal-free
(the two copy-retarget branches).

Any refactor of the coders or the token grammar must reproduce these
byte for byte.  Regenerate the file (only when a format changes on
purpose) with::

    PYTHONPATH=src python -m tests.test_golden_delta
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.delta import vcdiff_decode, vcdiff_encode, zdelta_decode, zdelta_encode
from repro.multiround import multiround_rsync_sync
from repro.net.channel import SimulatedChannel
from repro.net.faults import CollisionFaultPlan
from repro.rsync import rsync_sync
from repro.rsync.matcher import apply_tokens
from repro.rsync.protocol import decode_tokens
from tests.test_golden_core import corpus as core_corpus

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_delta.json"

COLLISION_SEEDS = range(8)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pairs() -> dict[str, tuple[bytes, bytes]]:
    """The core corpus's distinct ``(old, new)`` pairs, first name wins."""
    seen: set[tuple[bytes, bytes]] = set()
    out: dict[str, tuple[bytes, bytes]] = {}
    for name, (old, new, _config) in sorted(core_corpus().items()):
        if (old, new) not in seen:
            seen.add((old, new))
            out[name] = (old, new)
    return out


def _sent(channel: SimulatedChannel, phase: str) -> bytes:
    (payload,) = [m.payload for m in channel.recorder if m.phase == phase]
    return payload


def pair_fixture(old: bytes, new: bytes) -> dict:
    zdelta = zdelta_encode(old, new)
    vcdiff = vcdiff_encode(old, new)
    assert zdelta_decode(old, zdelta) == new
    assert vcdiff_decode(old, vcdiff) == new
    channel = SimulatedChannel()
    channel.recorder = []
    result = rsync_sync(old, new, channel=channel)
    assert result.reconstructed == new and not result.used_fallback
    delta = _sent(channel, "delta")
    assert apply_tokens(old, decode_tokens(delta[16:]), result.block_size) == new
    return {
        "zdelta_sha256": _sha(zdelta),
        "zdelta_bytes": len(zdelta),
        "vcdiff_sha256": _sha(vcdiff),
        "vcdiff_bytes": len(vcdiff),
        "rsync_signatures_sha256": _sha(_sent(channel, "signatures")),
        "rsync_delta_sha256": _sha(delta),
    }


def delta_payloads() -> dict[str, bytes]:
    """One rsync and one multiround delta payload, with and without
    literals."""
    cases = core_corpus()
    with_literals = cases["version-1601"][:2]
    literal_free = cases["edge-identical"][:2]
    out = {}
    for label, (old, new) in (
        ("literals", with_literals),
        ("literal-free", literal_free),
    ):
        for protocol, run in (
            ("rsync", rsync_sync),
            ("multiround", multiround_rsync_sync),
        ):
            channel = SimulatedChannel()
            channel.recorder = []
            run(old, new, channel=channel)
            out[f"{protocol}-{label}"] = _sent(channel, "delta")
    return out


def collision_fixture(payload: bytes) -> dict:
    mutations = []
    for seed in COLLISION_SEEDS:
        mutated = CollisionFaultPlan(seed=seed).collide(payload, "delta")
        assert mutated != payload
        mutations.append(_sha(mutated))
    return {"payload_sha256": _sha(payload), "mutation_sha256": mutations}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


PAIRS = pairs()
PAYLOADS = delta_payloads()


def test_corpus_matches_golden_keys():
    golden = _golden()
    assert sorted(PAIRS) == sorted(golden["pairs"])
    assert sorted(PAYLOADS) == sorted(golden["collisions"])


def test_edge_lengths_covered():
    assert {name for name in PAIRS if name.startswith("edge-length-")} == {
        f"edge-length-{size}"
        for size in (63, 65, 1023, 1025, 4095, 4097, 16383, 16385)
    }


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_pair_reproduces_golden(case):
    assert pair_fixture(*PAIRS[case]) == _golden()["pairs"][case]


@pytest.mark.parametrize("case", sorted(PAYLOADS))
def test_collision_mutations_reproduce_golden(case):
    assert collision_fixture(PAYLOADS[case]) == _golden()["collisions"][case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "pairs": {
                    name: pair_fixture(old, new)
                    for name, (old, new) in sorted(PAIRS.items())
                },
                "collisions": {
                    name: collision_fixture(payload)
                    for name, payload in sorted(PAYLOADS.items())
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(PAIRS)} pairs and {len(PAYLOADS)} payloads "
          f"to {GOLDEN_PATH}")
