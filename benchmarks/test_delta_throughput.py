"""Delta-matching micro-benchmark on the paper's tree workloads.

The perf gate in ``test_perf_baseline.py`` watches a synthetic seeded
workload; this module answers the practical question instead: on the
gcc/emacs-style source-tree version pairs the paper evaluates (§6.1),
how much faster is :func:`compute_instructions` (the one, chunked scan)
than the per-position ``_scan_scalar`` loop — the parity oracle, called
directly because nothing in the product calls it — and do both still
emit byte-identical instruction lists on every real-ish pair?

The parity assertion here is the benchmark-side complement of the
randomized suite in ``tests/test_delta_parity.py``: same property,
exercised on structured source text instead of adversarial noise.
"""

from __future__ import annotations

import time

import pytest

from conftest import publish
from repro.bench.report import render_table
from repro.delta.matcher import (
    _SEED_HASHER,
    ReferenceMatcher,
    _scan_scalar,
    compute_instructions,
)
from repro.hashing.scan import window_hashes

#: Per-tree cap on timed pairs — keeps the scalar side of the benchmark
#: to a few seconds while still covering dozens of files.
MAX_PAIRS = 48


def _changed_pairs(tree) -> list[tuple[str, bytes, bytes]]:
    pairs = [
        (name, tree.old[name], tree.new[name])
        for name in sorted(tree.old)
        if name in tree.new and tree.old[name] != tree.new[name]
    ]
    return pairs[:MAX_PAIRS]


def scalar_instructions(old: bytes, new: bytes, matcher: ReferenceMatcher):
    """Window hashes plus the per-position oracle scan."""
    return _scan_scalar(
        matcher, memoryview(old), new, memoryview(new),
        window_hashes(new, matcher.seed_length, _SEED_HASHER),
        matcher.seed_length,
    )


def vectorized_instructions(old: bytes, new: bytes, matcher: ReferenceMatcher):
    return compute_instructions(old, new, matcher=matcher)


def _time_engine(match, pairs, matchers, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for (_name, old, new), matcher in zip(pairs, matchers):
            match(old, new, matcher)
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("tree_fixture", ["gcc_tree", "emacs_tree"])
def test_vectorized_engine_speedup_on_tree_workloads(tree_fixture, request):
    tree = request.getfixturevalue(tree_fixture)
    pairs = _changed_pairs(tree)
    assert pairs, f"{tree_fixture} produced no changed files"
    matchers = [ReferenceMatcher(old) for _name, old, _new in pairs]

    # Parity first: every pair must produce byte-identical instructions.
    for (name, old, new), matcher in zip(pairs, matchers):
        scalar = scalar_instructions(old, new, matcher)
        vectorized = vectorized_instructions(old, new, matcher)
        assert scalar == vectorized, f"scans diverged on {name}"

    scalar_s = _time_engine(scalar_instructions, pairs, matchers)
    vector_s = _time_engine(vectorized_instructions, pairs, matchers)
    target_bytes = sum(len(new) for _name, _old, new in pairs)
    speedup = scalar_s / vector_s if vector_s > 0 else 0.0

    rows = [
        ["scalar", f"{scalar_s * 1000:.1f}",
         f"{target_bytes / scalar_s / 1e6:,.1f}"],
        ["vectorized", f"{vector_s * 1000:.1f}",
         f"{target_bytes / vector_s / 1e6:,.1f}"],
    ]
    publish(
        f"delta_throughput_{tree_fixture}",
        render_table(
            ["engine", "ms (best)", "MB/s"],
            rows,
            title=(
                f"{tree_fixture}: {len(pairs)} changed pairs, "
                f"{target_bytes / 1024:,.0f} KB target bytes — "
                f"vectorized {speedup:.2f}x over scalar"
            ),
        ),
    )
    # Source trees are copy-heavy (small edits), where the two scans are
    # closest; compute_instructions must still not lose.
    assert speedup >= 0.8, (
        f"compute_instructions slower than scalar on {tree_fixture} "
        f"({speedup:.2f}x)"
    )
