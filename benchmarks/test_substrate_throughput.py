"""CPU throughput of the substrates (the paper's §6.2 closing note).

"The prototype currently runs at a speed of up to a few MB of raw data
per second" — these microbenchmarks record what our Python/numpy
substrates manage, so EXPERIMENTS.md can report the honest CPU story
alongside the bandwidth results.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.delta import zdelta_encode
from repro.hashing import DecomposableAdler, HashIndex, window_hashes
from repro.rsync import compute_signatures, match_tokens
from tests_data import make_pair  # local helper module


@pytest.fixture(scope="module")
def payload():
    return make_pair(seed=1, nbytes=1_000_000, edits=60)


def test_window_hash_scan_throughput(benchmark, payload):
    """Vectorised all-position hashing of a 1 MB buffer."""
    old, _new = payload
    hasher = DecomposableAdler(seed=1)
    result = benchmark(window_hashes, old, 64, hasher)
    assert result.size == len(old) - 63


def test_hash_index_build_throughput(benchmark, payload):
    old, _new = payload
    hasher = DecomposableAdler(seed=1)

    def build():
        index = HashIndex(old, 64, hasher)
        index.lookup(index.packed_hash_at(1000, 20), 20)
        return index

    benchmark(build)


def test_zdelta_encode_throughput(benchmark, payload):
    old, new = payload
    delta = benchmark(zdelta_encode, old, new)
    assert len(delta) < len(new)


def test_rsync_match_throughput(benchmark, payload):
    old, new = payload
    signatures = compute_signatures(old, 700)
    tokens = benchmark(match_tokens, new, signatures, 2)
    assert tokens


def test_common_prefix_scan_throughput(benchmark, payload):
    """Chunked XOR prefix scan vs the naive per-byte loop it replaced.

    The matcher extends every candidate match with
    ``_common_prefix_length``; on long matches the chunked version is
    two orders of magnitude faster, and must never fall back below the
    naive loop.
    """
    from repro.delta.matcher import _common_prefix_length

    old, _new = payload
    a = memoryview(old)
    # Identical except the last byte: the worst case for the scan is the
    # longest possible common prefix.
    b = memoryview(old[:-1] + bytes([old[-1] ^ 0xFF]))

    def naive(x, y):
        limit = min(len(x), len(y))
        i = 0
        while i < limit and x[i] == y[i]:
            i += 1
        return i

    expected = naive(a, b)
    result = benchmark(_common_prefix_length, a, b)
    assert result == expected == len(old) - 1

    # One comparative timing (not under the benchmark fixture): the
    # chunked scan must beat per-byte by a wide margin.
    import time

    started = time.perf_counter()
    naive(a, b)
    naive_s = time.perf_counter() - started
    started = time.perf_counter()
    _common_prefix_length(a, b)
    chunked_s = time.perf_counter() - started
    assert chunked_s * 3 < naive_s, (
        f"chunked prefix scan ({chunked_s:.4f}s) not at least 3x faster "
        f"than per-byte ({naive_s:.4f}s)"
    )


def test_sorted_position_map_throughput(benchmark):
    """Batched candidate probing vs per-key dict lookups.

    The client session resolves expected positions for a whole round of
    blocks at once via :meth:`SortedPositionMap.get_many`; the batched
    searchsorted probe must beat looping ``dict.get`` across a
    round-sized query set.
    """
    import numpy as np

    from repro.core.client import SortedPositionMap

    rng = random.Random(7)
    entries = [(rng.randrange(10_000_000), i) for i in range(50_000)]
    position_map = SortedPositionMap()
    plain_dict = {}
    for key, value in entries:
        position_map[key] = value
        plain_dict[key] = value
    queries = np.array(
        [rng.randrange(10_000_000) for _ in range(8192)], dtype=np.int64
    )

    expected = np.array(
        [plain_dict.get(int(q), -1) for q in queries], dtype=np.int64
    )
    result = benchmark(position_map.get_many, queries)
    assert np.array_equal(result, expected)

    # One comparative timing (not under the benchmark fixture): the
    # batched probe must beat the per-key dict loop.
    import time

    query_list = queries.tolist()
    started = time.perf_counter()
    for q in query_list:
        plain_dict.get(q, -1)
    dict_s = time.perf_counter() - started
    started = time.perf_counter()
    position_map.get_many(queries)
    batched_s = time.perf_counter() - started
    assert batched_s < dict_s, (
        f"batched get_many ({batched_s:.5f}s) not faster than per-key "
        f"dict probes ({dict_s:.5f}s)"
    )


def test_mux_batch_pack_throughput(benchmark):
    """Multiplexed batch encode+decode for one scheduler direction turn.

    The pipelined collection scheduler packs every in-flight file's run
    of same-direction messages into one shared batch; framing must stay
    a rounding error next to protocol compute.  A batch of 64 lanes,
    each with a run of one to three 600-byte messages, round-trips
    through :func:`~repro.net.frame.encode_mux_batch` /
    :func:`~repro.net.frame.decode_mux_batch` per call.
    """
    from repro.net.frame import (
        decode_mux_batch,
        encode_mux_batch,
        mux_overhead_bytes,
    )

    rng = random.Random(11)
    runs = [
        [(8 * 600, rng.randbytes(600)) for _ in range(rng.randrange(1, 4))]
        for _lane in range(64)
    ]

    def roundtrip():
        batch = encode_mux_batch(runs)
        return batch, decode_mux_batch(batch, len(runs))

    batch, decoded = benchmark(roundtrip)
    assert decoded == runs
    # Header cost: the presence bitmap, a run length per lane and a
    # bit length per message — a few bytes per message.
    messages = sum(len(run) for run in runs)
    assert mux_overhead_bytes(batch, runs) < 4 * messages


def test_full_protocol_throughput(benchmark, payload):
    """End-to-end protocol speed on a 1 MB file (the paper's 'few MB of
    raw data per second' claim, in Python)."""
    old, new = payload
    result = benchmark.pedantic(
        synchronize, args=(old, new, ProtocolConfig()),
        iterations=1, rounds=3,
    )
    assert result.reconstructed == new


def test_minhash_sketch_throughput(benchmark, payload):
    """Content-defined shingling plus min-wise signature of 1 MB.

    The sketch must stay far cheaper than the delta encode it may save;
    a min-hash over all ~16K shingles of a 1 MB file is one vectorised
    pass, not a per-byte loop.
    """
    from repro.reuse import sketch

    old, _new = payload
    result = benchmark(sketch, old)
    assert result.signature.size == 64


def test_lsh_candidate_lookup_latency(benchmark):
    """Best-sibling lookup latency against a 512-file index.

    LSH banding makes the lookup touch only colliding buckets — the
    point is that candidate retrieval does not scan all signatures.
    """
    from repro.reuse import SimilarityIndex

    rng = random.Random(7)
    index = SimilarityIndex()
    base = rng.randbytes(16_384)
    for i in range(512):
        mutated = bytearray(base)
        for _ in range(1 + i % 9):
            at = rng.randrange(len(mutated) - 64)
            mutated[at : at + 32] = rng.randbytes(32)
        index.add(f"file{i:04d}", bytes(mutated))

    probe = bytearray(base)
    probe[100:140] = rng.randbytes(40)
    probe = bytes(probe)
    signature = index.signature_of(probe)

    best = benchmark(index.best_reference, signature=signature, threshold=0.5)
    assert best is not None
    name, resemblance = best
    assert resemblance > 0.5
