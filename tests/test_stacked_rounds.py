"""Stacked rounds: a stack of lanes must behave like each lane alone.

The driver (:mod:`repro.lanes`) runs every pending protocol round of a
stack of files as one :meth:`~repro.core.protocol.CoreSyncSession.step_round`
call.  Each file keeps its own channel, so its transcript, its
:class:`~repro.syncmethod.MethodOutcome` and the bytes its client
rebuilt must not depend on which other files shared its stack — nor on
a neighbour failing and retrying.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.methods import OursMethod
from repro.collection.sync import sync_collection
from repro.core import ProtocolConfig
from repro.core import server as server_module
from repro.core.protocol import CoreSyncSession
from repro.core.trace import HashKind
from repro.lanes import Lane, run_lane, step_lanes
from repro.net import FaultPlan, SimulatedChannel
from repro.parallel.executor import FileTask, SyncExecutor
from repro.resilience import SyncSupervisor
from repro.workloads import gcc_like
from tests.conftest import make_version_pair
from tests.test_collision_retry import wrong_content
from tests.test_properties import related_pair

#: Configs whose rounds differ in shape: the default, local hashes,
#: single-phase rounds, a three-batch verification strategy, and
#: per-sub-phase tracing.
CONFIGS = (
    ProtocolConfig(),
    ProtocolConfig(use_local_hashes=True),
    ProtocolConfig(continuation_first=False),
    ProtocolConfig(verification="group3", min_block_size=32),
    ProtocolConfig(collect_trace=True, start_block_size=256),
)


def run_alone(method, name, old, new):
    """One lane as a stack of one: its value and its transcript."""
    transcript = []
    value = run_lane(method.lane(name, old, new, recorder=transcript))
    return value, transcript


def run_stacked(method, pairs, stack_sizes=None):
    """Every pair as a lane of one stack: values and transcripts."""
    transcripts = [[] for _ in pairs]
    lanes = [
        Lane(method.lane(f"f{index}", old, new, recorder=transcript))
        for index, ((old, new), transcript) in enumerate(
            zip(pairs, transcripts)
        )
    ]
    step_round = CoreSyncSession.step_round

    def counting(requests):
        if stack_sizes is not None:
            stack_sizes.append(len(requests))
        return step_round(requests)

    with mock.patch.object(CoreSyncSession, "step_round", counting):
        while not all(lane.done for lane in lanes):
            step_lanes(lanes)
    for lane in lanes:
        assert lane.error is None, lane.error
    return [lane.value for lane in lanes], transcripts


def assert_stack_matches_alone(method, pairs, stack_sizes=None):
    values, transcripts = run_stacked(method, pairs, stack_sizes)
    for index, ((old, new), value, transcript) in enumerate(
        zip(pairs, values, transcripts)
    ):
        alone, alone_transcript = run_alone(method, f"f{index}", old, new)
        assert value == alone, index
        assert transcript == alone_transcript, index
        outcome, reconstructed = value
        assert outcome.correct
        assert reconstructed == new


@st.composite
def lane_pair(draw):
    """A changed pair, an unchanged one, or an empty/one-byte file."""
    kind = draw(st.sampled_from(("related", "unchanged", "tiny")))
    if kind == "related":
        return draw(related_pair())
    if kind == "unchanged":
        data = draw(st.binary(min_size=0, max_size=2000))
        return data, data
    return (
        draw(st.binary(min_size=0, max_size=1)),
        draw(st.binary(min_size=0, max_size=1)),
    )


@given(
    pairs=st.lists(lane_pair(), min_size=1, max_size=6),
    config_index=st.integers(0, len(CONFIGS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_stack_matches_each_lane_alone(pairs, config_index):
    assert_stack_matches_alone(OursMethod(CONFIGS[config_index]), pairs)


class TestStackShapes:
    def test_lanes_share_rounds_and_finish_at_different_levels(self):
        """Files of different sizes run their rounds in shared calls and
        drop out of the stack at different levels."""
        pairs = [
            make_version_pair(seed=700 + index, nbytes=size)
            for index, size in enumerate((600, 3000, 12000, 40000))
        ]
        sizes: list[int] = []
        assert_stack_matches_alone(OursMethod(), pairs, sizes)
        assert max(sizes) == len(pairs)
        assert sizes[-1] < len(pairs)  # the small files finished first

    def test_continuation_and_local_rows_are_stacked(self):
        config = ProtocolConfig(use_local_hashes=True, collect_trace=True)
        pairs = [
            make_version_pair(seed=710 + index, nbytes=9000)
            for index in range(3)
        ]
        assert_stack_matches_alone(OursMethod(config), pairs)
        kinds = set()
        for old, new in pairs:
            session = CoreSyncSession(old, new, config)
            run_lane(session.steps(SimulatedChannel()))
            for trace in session.trace:
                kinds.update(trace.hash_counts)
        assert {HashKind.CONTINUATION, HashKind.LOCAL} <= kinds

    def test_collision_repair_inside_a_stack(self):
        """One lane's delta decodes to the right length but wrong bytes:
        the doomed lane repairs inside its own lane, and every lane still
        matches its run alone."""
        pairs = [
            make_version_pair(seed=720 + index, nbytes=6000)
            for index in range(3)
        ]
        doomed = pairs[1][1]
        original = server_module.ServerSession.emit_delta

        def sabotage(self):
            return wrong_content(self) if self.data == doomed else original(self)

        method = OursMethod()
        with mock.patch.object(
            server_module.ServerSession, "emit_delta", sabotage
        ):
            assert_stack_matches_alone(method, pairs)
            (outcome, _data), transcript = run_alone(method, "f1", *pairs[1])
        assert outcome.collisions_detected == 1
        assert outcome.repair_rounds > 0 and outcome.repair_bytes > 0
        assert outcome.retransmitted_bytes == 0
        phases = {message.phase for message in transcript}
        assert "repair" in phases and "fallback" not in phases
        handshakes = [m for m in transcript if m.phase == "handshake"]
        assert len(handshakes) == 3  # one session: nothing re-ran


class TestFaultIsolation:
    def test_faulted_lane_retries_and_neighbours_are_untouched(self):
        pairs = [
            make_version_pair(seed=730 + index, nbytes=8000)
            for index in range(4)
        ]
        clean = SyncSupervisor(OursMethod())
        # The 8th send of the faulted lane (inside its first round)
        # drops the link; its supervisor retries on a fresh channel.
        faulty = SyncSupervisor(
            OursMethod(), fault_plan=FaultPlan(seed=3, disconnect_after_sends=8)
        )
        transcripts = [[] for _ in pairs]
        lanes = [
            Lane(
                (faulty if index == 2 else clean).lane(
                    f"f{index}", old, new, recorder=transcript
                )
            )
            for index, ((old, new), transcript) in enumerate(
                zip(pairs, transcripts)
            )
        ]
        while not all(lane.done for lane in lanes):
            step_lanes(lanes)
        for index, (lane, (old, new)) in enumerate(zip(lanes, pairs)):
            assert lane.error is None
            outcome, reconstructed = lane.value
            assert reconstructed == new
            if index == 2:
                assert outcome.retries == 1
                continue
            alone, alone_transcript = run_alone(clean, f"f{index}", old, new)
            assert lane.value == alone
            assert transcripts[index] == alone_transcript

    def test_fault_plan_supervisor_runs_one_lane_at_a_time(self):
        """Shared fault randomness makes file order observable, so the
        executor does not stack such a supervisor's lanes."""
        supervisor = SyncSupervisor(
            OursMethod(), fault_plan=FaultPlan.uniform(0.05, seed=1)
        )
        assert supervisor.observes_file_order
        assert not SyncSupervisor(OursMethod()).observes_file_order
        pairs = [make_version_pair(seed=740 + i, nbytes=3000) for i in range(3)]
        sizes: list[int] = []
        step_round = CoreSyncSession.step_round

        def counting(requests):
            sizes.append(len(requests))
            return step_round(requests)

        tasks = [FileTask(f"f{i}", old, new) for i, (old, new) in enumerate(pairs)]
        with mock.patch.object(CoreSyncSession, "step_round", counting):
            SyncExecutor(workers=1).run(supervisor, tasks, capture_errors=True)
        assert sizes and set(sizes) == {1}


class TestCollectionParity:
    def test_executor_reports_client_reconstructions(self):
        pairs = [make_version_pair(seed=750 + i, nbytes=4000) for i in range(3)]
        tasks = [FileTask(f"f{i}", old, new) for i, (old, new) in enumerate(pairs)]
        batch = SyncExecutor(workers=1).run(OursMethod(), tasks)
        assert [result.reconstructed for result in batch.files] == [
            new for _old, new in pairs
        ]

    @pytest.mark.parametrize("sibling_refs", [False, True])
    def test_two_workers_match_one(self, sibling_refs):
        tree = gcc_like(scale=0.05, seed=31)
        old, new = dict(tree.old), dict(tree.new)
        first = sorted(old)[0]
        new["added/variant.c"] = old[first][:-20] + b"/* variant */\n"
        reports = [
            sync_collection(
                old, new, OursMethod(), workers=workers,
                sibling_refs=sibling_refs,
            )
            for workers in (1, 2)
        ]
        serial, parallel = reports
        assert parallel.per_file == serial.per_file
        assert parallel.added == serial.added
        assert parallel.summary() == serial.summary()
        assert parallel.reconstructed == serial.reconstructed == new
