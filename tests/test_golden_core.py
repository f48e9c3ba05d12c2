"""Golden transcripts of the core protocol.

``tests/data/golden_core.json`` pins, for a seeded corpus of file pairs
and configurations, everything the core protocol puts on the wire or on
disk:

* the sha256 of the channel transcript (direction, phase, bits, round
  and payload of every message, in send order);
* the per-phase byte breakdown, the roundtrips and the round count;
* the sha256 of every round checkpoint payload;
* the sha256 of the reconstruction.

Any refactor of the block tree, the planners or the sessions must
reproduce these byte for byte.  Regenerate the file (only when the wire
format changes on purpose) with::

    PYTHONPATH=src python -m tests.test_golden_core
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.grouptesting.strategies import strategy_names
from repro.net.channel import SimulatedChannel
from repro.workloads import (
    gcc_like,
    make_binary_pair,
    make_log_pair,
    make_record_store_pair,
    make_web_collection,
)
from tests.conftest import make_version_pair

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_core.json"

#: Built-in verification strategies (custom ones may be registered at
#: runtime by other tests and are not part of the corpus).
BUILTIN_STRATEGIES = ("group1", "group2", "group3", "light", "trivial")


def _random_bytes(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _churn_pair(seed: int, size: int) -> tuple[bytes, bytes]:
    """Random reference; target alternates copied and novel runs."""
    rng = random.Random(seed)
    reference = rng.randbytes(size)
    target = bytearray()
    position = 0
    while position < size:
        copy_length = rng.randrange(1024, 4096)
        target += reference[position : position + copy_length]
        position += copy_length
        target += rng.randbytes(rng.randrange(256, 1536))
    return reference, bytes(target)


def _edited(seed: int, data: bytes, edits: int = 3) -> bytes:
    """``data`` with a few small replacements (length-preserving)."""
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(edits):
        if len(out) < 8:
            break
        at = rng.randrange(len(out) - 4)
        out[at : at + 4] = rng.randbytes(4)
    return bytes(out)


def _gcc_pairs() -> list[tuple[str, bytes, bytes]]:
    tree = gcc_like(scale=0.02, seed=4)
    changed = sorted(
        name
        for name in tree.new
        if name in tree.old and tree.old[name] != tree.new[name]
    )
    return [(name, tree.old[name], tree.new[name]) for name in changed[:3]]


def _web_pair() -> tuple[bytes, bytes]:
    collection = make_web_collection(page_count=4, days=(0, 7), seed=3)
    old, new = collection.snapshot(0), collection.snapshot(7)
    name = max(
        (name for name in new if name in old and old[name] != new[name]),
        key=lambda name: len(new[name]),
    )
    return old[name], new[name]


def corpus() -> dict[str, tuple[bytes, bytes, ProtocolConfig | None]]:
    """Every golden case: ``name -> (old, new, config)``."""
    cases: dict[str, tuple[bytes, bytes, ProtocolConfig | None]] = {}

    # Seeded version pairs (clustered, alignment-shifting text edits).
    for seed, nbytes, edits in (
        (1601, 16000, 8),
        (1610, 3000, 2),
        (1611, 24000, 13),
        (1612, 9000, 5),
        (1613, 700, 1),
    ):
        old, new = make_version_pair(seed=seed, nbytes=nbytes, edits=edits)
        cases[f"version-{seed}"] = (old, new, None)

    # Workload generators.
    log = make_log_pair(seed=3, base_lines=300, appended_lines=40,
                        rotate_fraction=0.1)
    cases["workload-log"] = (log.old, log.new, None)
    blob = make_binary_pair(seed=2, size=30000, patch_count=4, patch_size=500)
    cases["workload-binary"] = (blob.old, blob.new, None)
    store = make_record_store_pair(seed=5, record_count=200)
    cases["workload-records"] = (store.old, store.new, None)
    for name, old, new in _gcc_pairs():
        cases[f"workload-gcc-{name}"] = (old, new, None)
    cases["workload-web"] = (*_web_pair(), None)
    for seed in (1, 2):
        cases[f"workload-churn-{seed}"] = (*_churn_pair(seed, 24 * 1024), None)

    # Edge files.
    text = make_version_pair(seed=1700, nbytes=5000, edits=3)[0]
    cases["edge-both-empty"] = (b"", b"", None)
    cases["edge-empty-old"] = (b"", text[:2000], None)
    cases["edge-empty-new"] = (text[:2000], b"", None)
    cases["edge-identical"] = (text, text, None)
    cases["edge-one-byte"] = (b"a", b"b", None)
    cases["edge-one-byte-same"] = (b"a", b"a", None)
    cases["edge-one-byte-new"] = (text[:3000], b"z", None)
    for size in (63, 65, 1023, 1025, 4095, 4097, 16383, 16385):
        old = _random_bytes(size, size)
        cases[f"edge-length-{size}"] = (old, _edited(size, old), None)
    cases["edge-new-shorter-than-block"] = (text, text[100:140], None)
    cases["edge-runs"] = (b"\x00" * 4096, b"\x00" * 4095 + b"\x01", None)

    # Configuration cells on one seeded pair.
    old, new = make_version_pair(seed=1701, nbytes=14000, edits=8)
    cells = {
        "single-phase": ProtocolConfig(continuation_first=False),
        "single-phase-local": ProtocolConfig(
            continuation_first=False, use_local_hashes=True
        ),
        "local-hashes": ProtocolConfig(use_local_hashes=True),
        "no-decomposable": ProtocolConfig(use_decomposable=False),
        "no-continuation": ProtocolConfig(continuation_min_block_size=None),
        "refine": ProtocolConfig(refine_boundaries=True),
        "max-rounds-2": ProtocolConfig(max_rounds=2),
        "vcdiff": ProtocolConfig(delta_coder="vcdiff"),
        "small-blocks": ProtocolConfig(
            start_block_size=512, min_block_size=32,
            continuation_min_block_size=8,
        ),
    }
    for strategy in BUILTIN_STRATEGIES:
        cells[f"verify-{strategy}"] = ProtocolConfig(verification=strategy)
    for name, config in cells.items():
        cases[f"config-{name}"] = (old, new, config)
    # Local hashes need a neighbourhood the tail blocks can reach.
    cases["config-local-wide"] = (
        *make_version_pair(seed=1702, nbytes=20000, edits=12),
        ProtocolConfig(use_local_hashes=True, min_block_size=128,
                       local_neighborhood=8192),
    )
    # A forced collision: 4-bit global hashes with the weakest
    # verification accept a false match, the whole-file checksum fails,
    # and the repair descent fixes the divergent leaves in place.
    churn_old, churn_new = _churn_pair(18, 16 * 1024)
    cases["config-forced-collision"] = (
        churn_old,
        churn_new,
        ProtocolConfig(
            global_hash_bits=4, verification="light",
            max_candidate_positions=1,
        ),
    )
    return cases


class _CheckpointDigests:
    """A checkpointer that keeps the sha256 of every round payload."""

    def __init__(self) -> None:
        self.digests: list[str] = []

    def record_round(self, round_index, payload, stats) -> None:
        self.digests.append(hashlib.sha256(payload).hexdigest())


def transcript_digest(recorder) -> str:
    digest = hashlib.sha256()
    for message in recorder:
        digest.update(
            f"{message.direction.value}\t{message.phase}\t{message.bits}\t"
            f"{message.round_index}\t{len(message.payload)}\n".encode()
        )
        digest.update(message.payload)
    return digest.hexdigest()


def fixture_for(old: bytes, new: bytes, config) -> dict:
    """Run one case and summarise everything the golden file pins."""
    channel = SimulatedChannel()
    channel.recorder = []
    checkpoints = _CheckpointDigests()
    result = synchronize(old, new, config, channel, checkpointer=checkpoints)
    assert result.reconstructed == new
    return {
        "transcript_sha256": transcript_digest(channel.recorder),
        "messages": len(channel.recorder),
        "breakdown": result.stats.breakdown(),
        "roundtrips": result.stats.roundtrips,
        "rounds": result.rounds,
        "used_fallback": result.used_fallback,
        "checkpoint_sha256": checkpoints.digests,
        "reconstruction_sha256": hashlib.sha256(
            result.reconstructed
        ).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


CASES = corpus()


def test_corpus_matches_golden_keys():
    assert sorted(CASES) == sorted(_golden())


def test_builtin_strategies_all_covered():
    assert set(BUILTIN_STRATEGIES) <= set(strategy_names())


def test_forced_collision_takes_the_repair_path():
    golden = _golden()["config-forced-collision"]
    assert not golden["used_fallback"]
    assert golden["breakdown"]["s2c/repair"] > 0
    assert golden["breakdown"].get("s2c/fallback", 0) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_reproduces_golden(case):
    old, new, config = CASES[case]
    assert fixture_for(old, new, config) == _golden()[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                name: fixture_for(old, new, config)
                for name, (old, new, config) in sorted(CASES.items())
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
