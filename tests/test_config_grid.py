"""Exhaustive configuration-grid correctness: every sensible combination
of techniques must reconstruct exactly, one file or a whole collection."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.methods import MultiroundRsyncMethod, OursMethod, RsyncMethod
from repro.collection import sync_collection
from repro.core import ProtocolConfig, synchronize
from repro.exceptions import ReproError
from repro.net import FaultPlan
from repro.resilience import SyncSupervisor
from tests.conftest import make_version_pair


@st.composite
def protocol_configs(draw) -> ProtocolConfig:
    min_block = draw(st.sampled_from([16, 32, 64, 128, 256]))
    continuation = draw(
        st.sampled_from([None, 4, 8, 16])
    )
    if continuation is not None:
        continuation = min(continuation, min_block)
    return ProtocolConfig(
        min_block_size=min_block,
        continuation_min_block_size=continuation,
        continuation_first=draw(st.booleans()),
        use_decomposable=draw(st.booleans()),
        use_local_hashes=draw(st.booleans()),
        verification=draw(
            st.sampled_from(["trivial", "light", "group1", "group2", "group3"])
        ),
        global_hash_bits=draw(st.sampled_from([None, 12, 16, 24])),
        continuation_hash_bits=draw(st.sampled_from([2, 6, 10])),
        max_rounds=draw(st.sampled_from([None, 1, 3])),
        refine_boundaries=draw(st.booleans()),
        max_candidate_positions=draw(st.sampled_from([1, 4])),
    )


@given(config=protocol_configs(), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_any_config_reconstructs_exactly(config, seed):
    old, new = make_version_pair(seed=seed, nbytes=4000, edits=4)
    result = synchronize(old, new, config)
    assert result.reconstructed == new


@given(config=protocol_configs())
@settings(max_examples=25, deadline=None)
def test_any_config_handles_pathological_inputs(config):
    cases = [
        (b"", b""),
        (b"", b"fresh"),
        (b"stale", b""),
        (b"\x00" * 3000, b"\x00" * 2999 + b"\x01"),
        (b"ab" * 1500, b"ba" * 1500),
    ]
    for old, new in cases:
        assert synchronize(old, new, config).reconstructed == new


@pytest.mark.parametrize("min_block", [16, 64, 256])
@pytest.mark.parametrize("verification", ["trivial", "group2"])
@pytest.mark.parametrize("refine", [False, True])
def test_grid_on_realistic_pair(min_block, verification, refine):
    old, new = make_version_pair(seed=5000, nbytes=15000, edits=6)
    config = ProtocolConfig(
        min_block_size=min_block,
        continuation_min_block_size=min(16, min_block),
        verification=verification,
        refine_boundaries=refine,
    )
    result = synchronize(old, new, config)
    assert result.reconstructed == new
    assert result.total_bytes < len(new)


@st.composite
def collection_pairs(draw) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A small (client, server) pair holding changed, unchanged, added
    and removed files, an empty file and one non-UTF-8 name."""
    seed = draw(st.integers(0, 10_000))

    def version_pair(index: int) -> tuple[bytes, bytes]:
        return make_version_pair(seed=seed * 16 + index, nbytes=1200, edits=3)

    client: dict[str, bytes] = {}
    server: dict[str, bytes] = {}
    for index in range(draw(st.integers(1, 3))):
        client[f"changed/{index}.txt"], server[f"changed/{index}.txt"] = (
            version_pair(index)
        )
    # Decoded as ``os.fsdecode`` decodes a name that is not UTF-8.
    odd = os.fsdecode(b"odd\xffname.txt")
    client[odd], server[odd] = version_pair(4)
    for index in range(draw(st.integers(1, 2))):
        client[f"same/{index}.txt"] = server[f"same/{index}.txt"] = (
            version_pair(5 + index)[0]
        )
    for index in range(draw(st.integers(1, 2))):
        client[f"removed/{index}.txt"] = version_pair(7 + index)[0]
    for index in range(draw(st.integers(1, 2))):
        # A near-copy of a changed file: a sibling reference can serve it.
        server[f"added/{index}.txt"] = server["changed/0.txt"] + b"%d" % index
    empty_side = draw(st.sampled_from(["both", "client", "server", "emptied"]))
    if empty_side in ("both", "client"):
        client["empty"] = b""
    if empty_side in ("both", "server"):
        server["empty"] = b""
    if empty_side == "emptied":
        client["empty"], server["empty"] = b"was full", b""
    return client, server


def _method(draw, seed: int):
    kind = draw(st.sampled_from(["ours", "multiround", "rsync", "faulty"]))
    if kind == "faulty":
        return SyncSupervisor(
            OursMethod(), fault_plan=FaultPlan.uniform(0.05, seed=seed)
        )
    return {
        "ours": OursMethod, "multiround": MultiroundRsyncMethod,
        "rsync": RsyncMethod,
    }[kind]()


def _stored(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


@given(pair=collection_pairs(), draw=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_collection_options_reconstruct_exactly(pair, draw):
    """Differential property: whatever valid options a run is given, each
    file either ends with the server's bytes or is reported failed and
    keeps the client's; a store ends holding what the report holds."""
    client, server = pair
    options = {
        "change_detection": draw.draw(st.sampled_from(["manifest", "reconcile"])),
        "workers": draw.draw(st.sampled_from([1, 1, 1, 1, 2])),
        "on_error": draw.draw(st.sampled_from(["raise", "skip", "fallback"])),
        "pipeline": draw.draw(st.booleans()),
        "window": draw.draw(st.sampled_from([1, 3, 8])),
        "sibling_refs": draw.draw(st.booleans()),
    }
    method = _method(draw.draw, draw.draw(st.integers(0, 1_000)))
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) if draw.draw(st.booleans()) else None
        try:
            report = sync_collection(
                client, server, method, store=store, **options
            )
        except ReproError as error:
            # Only "raise" may abort, with a typed error naming the file.
            assert options["on_error"] == "raise"
            assert any(name in str(error) for name in server), error
            return
        assert set(report.reconstructed) == set(server)
        for name, data in server.items():
            expected = client[name] if name in report.failed else data
            assert report.reconstructed[name] == expected, name
        if store is not None:
            assert _stored(store) == report.reconstructed
