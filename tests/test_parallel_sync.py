"""Parallel collection sync must be byte-identical to the serial path."""

from __future__ import annotations

import pytest

from repro.bench import OursMethod, ZdeltaMethod
from repro.collection import sync_collection
from repro.syncmethod import MethodOutcome, SyncMethod
from repro.workloads import emacs_like, gcc_like, make_web_collection


def _gcc_pair():
    tree = gcc_like(scale=0.05, seed=11)
    return tree.old, tree.new


def _emacs_pair():
    tree = emacs_like(scale=0.05, seed=12)
    return tree.old, tree.new


def _web_pair():
    collection = make_web_collection(page_count=12, days=(0, 1), seed=13)
    return collection.snapshot(0), collection.snapshot(1)


def _edge_pair():
    """Empty files, emptied files, filled files, adds and removals."""
    old = {
        "empty-stays": b"",
        "empty-fills": b"",
        "content-empties": b"some bytes that vanish" * 40,
        "content-changes": b"alpha beta gamma " * 200,
        "content-stays": b"stable " * 100,
        "removed": b"goes away",
    }
    new = {
        "empty-stays": b"",
        "empty-fills": b"suddenly present " * 50,
        "content-empties": b"",
        "content-changes": b"alpha beta delta " * 200,
        "content-stays": b"stable " * 100,
        "added-empty": b"",
        "added-full": b"brand new data " * 30,
    }
    return old, new


PAIRS = {
    "gcc": _gcc_pair,
    "emacs": _emacs_pair,
    "web": _web_pair,
    "edges": _edge_pair,
}


def _assert_reports_identical(serial, parallel):
    assert parallel.summary() == serial.summary()
    assert parallel.total_bytes == serial.total_bytes
    assert parallel.reconstructed == serial.reconstructed
    assert list(parallel.per_file) == list(serial.per_file)
    for name, outcome in serial.per_file.items():
        other = parallel.per_file[name]
        assert other.total_bytes == outcome.total_bytes
        assert other.client_to_server == outcome.client_to_server
        assert other.server_to_client == outcome.server_to_client
        assert other.breakdown == outcome.breakdown


@pytest.mark.parametrize("workload", sorted(PAIRS))
def test_parallel_matches_serial_ours(workload):
    old, new = PAIRS[workload]()
    serial = sync_collection(old, new, OursMethod(), workers=1)
    parallel = sync_collection(old, new, OursMethod(), workers=2)
    assert parallel.workers == 2 or len(serial.diff.changed) <= 1
    _assert_reports_identical(serial, parallel)


@pytest.mark.parametrize("workload", sorted(PAIRS))
def test_parallel_matches_serial_zdelta(workload):
    old, new = PAIRS[workload]()
    serial = sync_collection(old, new, ZdeltaMethod(), workers=1)
    parallel = sync_collection(old, new, ZdeltaMethod(), workers=2)
    _assert_reports_identical(serial, parallel)


def test_parallel_matches_serial_with_sibling_refs():
    """Changed files fan out to the pool; the added files (a rename and a
    near-copy of an unchanged file) go after them, in the parent."""
    old, new = _gcc_pair()
    new = dict(new)
    kept = [name for name in sorted(old) if new.get(name) == old[name]]
    new["renamed/copy.c"] = old[kept[0]]
    new["renamed/variant.c"] = old[kept[1]][:-40] + b"/* variant */\n"
    serial = sync_collection(
        old, new, OursMethod(), workers=1, sibling_refs=True
    )
    parallel = sync_collection(
        old, new, OursMethod(), workers=2, sibling_refs=True
    )
    assert parallel.workers == 2
    assert serial.dedup_hits == 1 and serial.sibling_refs_used == 1
    _assert_reports_identical(serial, parallel)
    assert parallel.added == serial.added
    assert parallel.dedup_hits == serial.dedup_hits
    assert parallel.sibling_refs_used == serial.sibling_refs_used
    assert parallel.reconstructed == new


class _UnpicklableOurs(SyncMethod):
    """Forces the executor's serial fallback while workers=2 is requested."""

    name = "ours-unpicklable"

    def __init__(self) -> None:
        self._inner = OursMethod()
        self._closure = lambda: None  # defeats pickling

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return self._inner.sync_file(old, new)


def test_fallback_path_matches_serial():
    old, new = _edge_pair()
    serial = sync_collection(old, new, OursMethod(), workers=1)
    fallback = sync_collection(old, new, _UnpicklableOurs(), workers=2)
    assert fallback.workers == 1  # pool was refused, serial fallback ran
    assert fallback.summary() == serial.summary()
    assert fallback.reconstructed == serial.reconstructed


def test_workers_none_resolves_to_cpu_count():
    import os

    old, new = _edge_pair()
    report = sync_collection(old, new, ZdeltaMethod(), workers=None)
    assert report.workers >= 1
    assert report.workers <= max(os.cpu_count() or 1, 1)


def test_repeated_sync_hits_hash_index_cache():
    from repro.parallel import reset_default_cache

    old, new = PAIRS["gcc"]()
    reset_default_cache()
    first = sync_collection(old, new, OursMethod(), workers=1)
    second = sync_collection(old, new, OursMethod(), workers=1)
    assert first.cache_misses > 0
    assert second.cache_hits > 0
    assert second.cache_misses == 0  # identical data: everything reused
