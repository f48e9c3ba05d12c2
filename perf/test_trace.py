"""Tests of the benchmark's layer tracer.

Run from the repository root: ``python3 -m pytest perf/test_trace.py``.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF), str(PERF.parent / "src")]

from repro.bench.methods import OursMethod  # noqa: E402
from repro.collection.sync import sync_collection  # noqa: E402
from repro.net.channel import SimulatedChannel  # noqa: E402
from repro.reuse import BroadcastDeltaServer, DedupStore, DeltaMemoCache  # noqa: E402
from repro.workloads import gcc_like, make_fleet  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _bindings() -> dict:
    """Every place a target is bound: class attributes and module globals."""
    found = {}
    for _layer, module_name, qualname in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            found[qualname] = vars(getattr(module, owner_name))[attribute]
            continue
        target = getattr(module, attribute)
        for name, loaded in list(sys.modules.items()):
            for key, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is target:
                    found[name, key] = value
    return found


def _traced(update) -> tuple[Tracer, float]:
    tracer = Tracer()
    started = time.perf_counter()
    with tracer:
        update()
    return tracer, time.perf_counter() - started


def test_every_target_is_patched_at_least_once():
    with Tracer() as tracer:
        assert set(tracer.patched) == {(module, name) for _l, module, name in LAYERS}
        assert min(tracer.patched.values()) >= 1
        # Bound by name across the package, so replaced in many modules.
        assert tracer.patched["repro.hashing.strong", "file_fingerprint"] > 5


@pytest.mark.parametrize("shape", ["sequential", "pipelined", "broadcast"])
def test_self_times_sum_to_at_most_the_update_wall_time(shape):
    if shape == "broadcast":
        fleet = make_fleet(clients=3, files=6, versions=3, seed=4)

        def update():
            server = BroadcastDeltaServer(
                fleet.server, memo=DeltaMemoCache(), dedup=DedupStore()
            )
            for client in fleet.clients:
                server.serve(client.files)

        busiest = "reuse.serve"
    else:
        tree = gcc_like(scale=0.1, seed=3)
        options = {"pipeline": True} if shape == "pipelined" else {}

        def update():
            sync_collection(tree.old, tree.new, OursMethod(), **options)

        busiest = "core.round"
    tracer, wall = _traced(update)
    assert 0.0 < sum(tracer.self_s.values()) <= wall
    assert min(tracer.self_s.values()) >= 0.0
    assert tracer.calls[busiest] > 0


def test_uninstall_restores_the_original_functions():
    before = _bindings()
    original_send = SimulatedChannel.send
    tracer = Tracer()
    tracer.install()
    try:
        assert SimulatedChannel.send is not original_send
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert SimulatedChannel.send is original_send
    assert _bindings() == before


def test_a_missing_target_is_refused_and_nothing_stays_patched():
    before = _bindings()
    tracer = Tracer(
        layers=LAYERS + (("bogus", "repro.hashing.strong", "no_such_function"),)
    )
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    assert _bindings() == before
