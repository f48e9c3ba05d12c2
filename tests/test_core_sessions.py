"""Tests for client/server session internals and endpoint mirroring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig
from repro.core.blocks import Frontier
from repro.core.client import ClientSession, SortedPositionMap
from repro.core.planning import plan_continuation, plan_global
from repro.core.server import ServerSession
from repro.exceptions import ProtocolError
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitWriter
from tests.conftest import make_version_pair


CONFIG = ProtocolConfig(start_block_size=1024, min_block_size=64,
                        global_hash_bits=16)


class TestServerSession:
    def test_fingerprint(self):
        server = ServerSession(b"content", CONFIG)
        assert server.fingerprint() == file_fingerprint(b"content")

    def test_emit_hashes_bit_exact(self):
        old, new = make_version_pair(seed=50, nbytes=5000)
        server = ServerSession(new, CONFIG)
        plan = plan_global(server.tracker, 16)
        (payload,), bits = ServerSession.emit_hashes([server], plan, [0, plan.size])
        assert bits.tolist() == [plan.transmitted_bits]
        assert len(payload) == (plan.transmitted_bits + 7) // 8

    def test_negative_client_length_rejected(self):
        with pytest.raises(ProtocolError):
            ServerSession(b"x", CONFIG).set_client_length(-1)

    def test_reference_is_target_ordered(self):
        server = ServerSession(b"ABCDEFGH", ProtocolConfig(
            start_block_size=2, min_block_size=2,
            continuation_min_block_size=2))
        server.tracker.record_matches(np.asarray([2]))  # "EF"
        server.tracker.record_matches(np.asarray([0]))  # "AB"
        assert server.reference() == b"ABEF"

    def test_emit_delta_reconstructable_via_client_reference(self):
        from repro.delta import zdelta_decode

        old, new = make_version_pair(seed=51, nbytes=4000)
        server = ServerSession(new, CONFIG)
        # With no confirmed matches the reference is empty: the delta must
        # still decode to the full file.
        delta = server.emit_delta()
        assert zdelta_decode(b"", delta) == new


class TestClientSession:
    def test_handshake_detects_unchanged(self):
        data = b"same bytes everywhere"
        client = ClientSession(data, CONFIG)
        assert client.process_handshake(file_fingerprint(data), len(data))

    def test_handshake_detects_changed(self):
        client = ClientSession(b"old", CONFIG)
        assert not client.process_handshake(file_fingerprint(b"new"), 3)

    def test_methods_require_handshake(self):
        client = ClientSession(b"data", CONFIG)
        none = np.zeros(0, dtype=np.int64)
        with pytest.raises(ProtocolError):
            client.record_accepted(none, none, none)
        with pytest.raises(ProtocolError):
            client.apply_delta(b"")

    def test_expected_positions_from_map(self):
        old, new = make_version_pair(seed=52, nbytes=5000)
        client = ClientSession(old, CONFIG)
        client.process_handshake(file_fingerprint(new), len(new))
        tracker = client.tracker
        assert tracker is not None
        # Pretend row 1 ([1024, 2048)) matched at source position 123.
        tracker.record_matches(np.asarray([1]))
        client.record_accepted(
            tracker.starts[[1]], tracker.lengths[[1]], np.asarray([123])
        )
        # Row 2 extends the match: its only expected source position is
        # right after the neighbour's, 123 + 1024.
        plan = plan_continuation(tracker)
        assert plan.rows.tolist() == [0, 2]
        expected = 123 + 1024
        writer = BitWriter()
        writer.write(0, CONFIG.continuation_hash_bits)
        writer.write(
            client.prefix.packed(expected, 1024, CONFIG.continuation_hash_bits),
            CONFIG.continuation_hash_bits,
        )
        positions, failures = ClientSession.process_hashes(
            [client], Frontier([tracker]), plan, [0, plan.size],
            [writer.getvalue()],
        )
        assert not failures
        assert positions.tolist() == [-1, expected]


class TestEndpointMirroring:
    def test_plans_identical_across_endpoints(self):
        old, new = make_version_pair(seed=53, nbytes=8000)
        server = ServerSession(new, CONFIG)
        server.set_client_length(len(old))
        client = ClientSession(old, CONFIG)
        client.process_handshake(file_fingerprint(new), len(new))
        client_tracker = client.tracker
        assert client_tracker is not None

        for planner in (plan_continuation, lambda t: plan_global(t, 16)):
            server_plan = planner(server.tracker)
            client_plan = planner(client_tracker)
            assert server_plan.size == client_plan.size
            for ours, theirs in zip(server_plan, client_plan):
                assert np.array_equal(ours, theirs)


class TestIndexShortCircuit:
    def test_oversized_block_length_yields_empty_index(self):
        client = ClientSession(b"tiny", CONFIG)
        index = client._index(100)
        assert index.position_count == 0
        assert index.lookup(0, 8) == []
        assert index.lookup_in_range(0, 8, 0, 100) == []

    def test_oversized_index_never_scans_the_data(self, monkeypatch):
        import repro.hashing.scan as scan_module

        client = ClientSession(b"some client data", CONFIG)

        def _boom(*args, **kwargs):
            raise AssertionError("oversized index touched the data scan")

        monkeypatch.setattr(scan_module, "prefix_sums", _boom)
        monkeypatch.setattr(scan_module, "window_hashes_from_sums", _boom)
        index = client._index(len(b"some client data") + 1)
        assert index.position_count == 0

    def test_oversized_index_is_memoised_not_cached_globally(self):
        from repro.parallel import HashIndexCache

        cache = HashIndexCache()
        client = ClientSession(b"abc", ProtocolConfig(), cache=cache)
        lookups_before = cache.stats.lookups
        first = client._index(50)
        second = client._index(50)
        assert first is second
        # Only the session-local memo was used: no cache slot burned.
        assert cache.stats.lookups == lookups_before


class TestSessionCacheReuse:
    def test_second_session_on_same_data_hits_cache(self):
        from repro.parallel import HashIndexCache

        cache = HashIndexCache()
        data = b"identical client bytes" * 100
        ClientSession(data, CONFIG, cache=cache)
        assert cache.stats.hits == 0
        ClientSession(data, CONFIG, cache=cache)
        assert cache.stats.hits == 1  # prefix sums reused

    def test_different_seed_never_shares_entries(self):
        from repro.parallel import HashIndexCache

        cache = HashIndexCache()
        data = b"identical client bytes" * 100
        ClientSession(data, CONFIG, cache=cache)
        ClientSession(data, CONFIG.with_overrides(hash_seed=99), cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2


#: One write to a map: ``(lane, keys, values)``; ``keys`` empty writes
#: nothing, and a single key goes through ``__setitem__``.
_WRITES = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1000)), max_size=6),
    ),
    max_size=12,
)


class TestSortedPositionMap:
    @given(_WRITES, st.lists(st.integers(0, 12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_dicts_last_write_wins(self, writes, probe_after):
        maps = [SortedPositionMap() for _ in range(3)]
        dicts: list[dict[int, int]] = [{} for _ in range(3)]
        probe_keys = np.arange(-1, 42, dtype=np.int64)
        lanes = np.repeat(np.arange(3), probe_keys.size)
        for step, (lane, entries) in enumerate(writes):
            if len(entries) == 1:
                maps[lane][entries[0][0]] = entries[0][1]
            else:
                maps[lane].set_many(
                    np.asarray([k for k, _ in entries], dtype=np.int64),
                    np.asarray([v for _, v in entries], dtype=np.int64),
                )
            dicts[lane].update(entries)
            if step in probe_after:
                # Probing merges the queued writes into the snapshots.
                got = SortedPositionMap.get_stacked(
                    maps, lanes, np.tile(probe_keys, 3)
                )
                want = [
                    d.get(key, -1) for d in dicts for key in probe_keys.tolist()
                ]
                assert got.tolist() == want
        for m, d in zip(maps, dicts):
            assert bool(m) == bool(d)
            assert len(m) == len(d)
            assert [m.get(k) for k in range(-1, 42)] == [
                d.get(k) for k in range(-1, 42)
            ]
