"""Collection sync under injected faults: per-file isolation end to end.

The degradation-ladder scenarios the issue calls out — corruption in the
map phase, drops in the delta phase, a disconnect mid-split — must all
end in byte-identical reconstruction with monotone retry counters, and
the happy path must stay byte-identical to a run without the resilience
layer.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.bench.methods import OursMethod, ZdeltaMethod
from repro.collection import sync_collection
from repro.exceptions import IntegrityError, ReproError, SyncFailedError
from repro.net import FaultPlan, LinkModel
from repro.parallel import FileTask, SyncExecutor
from repro.resilience import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    CheckpointStore,
    DeadlineBudget,
    RetryPolicy,
    SyncSupervisor,
)
from repro.syncmethod import MethodOutcome, SyncMethod
from repro.workloads import gcc_like


@pytest.fixture(scope="module")
def tree():
    return gcc_like(scale=0.05, seed=21)


@pytest.fixture
def options():
    """Scheduling options of the run under test: sequential here; the
    ``Pipelined`` subclasses below rerun every test with the pipelined
    scheduler at ``window`` 1 and 8."""
    return {}


class TestHappyPathUnchanged:
    def test_resilient_run_matches_plain_run(self, tree):
        """With no faults, wrapping in the supervisor changes nothing:
        same summary, same per-file byte accounting, zero counters."""
        plain = sync_collection(tree.old, tree.new, OursMethod())
        resilient = sync_collection(
            tree.old, tree.new,
            SyncSupervisor(OursMethod(), retry=RetryPolicy()),
            on_error="fallback",
        )
        assert resilient.summary() == plain.summary()
        assert {
            name: outcome.total_bytes
            for name, outcome in resilient.per_file.items()
        } == {
            name: outcome.total_bytes
            for name, outcome in plain.per_file.items()
        }
        assert resilient.total_retries == 0
        assert resilient.files_fallback == 0
        assert resilient.files_failed == 0
        assert resilient.retransmitted_bytes == 0


SCENARIOS = {
    "corruption in map phase": FaultPlan(
        seed=31, corrupt_rate=0.2, phases=frozenset({"map"})
    ),
    "drops in delta phase": FaultPlan(
        seed=32, drop_rate=0.3, phases=frozenset({"delta"})
    ),
    "disconnect mid split": FaultPlan(seed=33, disconnect_after_sends=40),
    "uniform mix at 0.1": FaultPlan.uniform(0.1, seed=34),
}


class TestDegradationLadder:
    @pytest.mark.parametrize("plan", SCENARIOS.values(), ids=SCENARIOS)
    def test_byte_identical_reconstruction_under_faults(
        self, tree, plan, options
    ):
        report = sync_collection(
            tree.old, tree.new,
            SyncSupervisor(OursMethod(), fault_plan=copy.deepcopy(plan)),
            on_error="fallback", **options,
        )
        assert report.reconstructed == tree.new
        assert report.files_failed == 0
        # Counters are consistent: every fallback implies retries burnt.
        assert report.total_retries == sum(report.retries.values())
        for name in report.fallbacks:
            assert report.retries.get(name, 0) >= 1

    def test_retry_counters_monotone_in_fault_rate(self, tree, options):
        """More injected faults can only mean more recovery work: with
        the same seed, retries and retransmitted bytes never shrink as
        the fault rate rises."""
        totals = []
        for rate in (0.0, 0.05, 0.15):
            report = sync_collection(
                tree.old, tree.new,
                SyncSupervisor(
                    OursMethod(), fault_plan=FaultPlan.uniform(rate, seed=35)
                ),
                on_error="fallback",
                **options,
            )
            assert report.reconstructed == tree.new
            totals.append(
                (report.total_retries, report.retransmitted_bytes)
            )
        assert totals[0] == (0, 0)
        retries = [t[0] for t in totals]
        assert retries == sorted(retries)
        assert retries[-1] > 0
        # Retransmission cost is positive whenever retries were burnt
        # (but not monotone in the rate: at higher rates attempts die
        # earlier, wasting fewer bytes per failure).
        for count, wasted in totals[1:]:
            assert (wasted > 0) == (count > 0)

    def test_never_raises_with_fallback_across_seeds(self, tree, options):
        for seed in range(5):
            report = sync_collection(
                tree.old, tree.new,
                SyncSupervisor(
                    OursMethod(), fault_plan=FaultPlan.uniform(0.1, seed=seed)
                ),
                on_error="fallback",
                **options,
            )
            assert report.reconstructed == tree.new


class TestDegradationLadderPipelined(TestDegradationLadder):
    @pytest.fixture(params=[1, 8], ids=["window1", "window8"])
    def options(self, request):
        return {"pipeline": True, "window": request.param}


RESILIENCE = {
    "static-retry": lambda tmp_path: {"retry": RetryPolicy()},
    "adaptive": lambda tmp_path: {
        "retry": AdaptiveRetryPolicy(),
        "breakers": BreakerBoard(failure_threshold=3),
        "deadline_s": 120.0,
    },
    "checkpoints": lambda tmp_path: {
        "checkpoints": CheckpointStore(tmp_path / "journals")
    },
}


class TestPipelinedWindowOneParity:
    """A pipelined run runs its files as the sequential run does and
    only replays their transcripts onto a shared link, so at any window
    it sees the same faults in the same order and must reach the same
    per-file verdicts and byte accounting."""

    @pytest.fixture
    def window(self):
        return 1

    @pytest.mark.parametrize("on_error", ["skip", "fallback"])
    @pytest.mark.parametrize("resilience", RESILIENCE.values(), ids=RESILIENCE)
    def test_same_report_as_sequential(
        self, tree, tmp_path, resilience, on_error, window
    ):
        reports = []
        for label, options in (
            ("sequential", {}),
            ("pipelined", {"pipeline": True, "window": window}),
        ):
            reports.append(
                sync_collection(
                    tree.old, tree.new,
                    SyncSupervisor(
                        OursMethod(),
                        fault_plan=FaultPlan.uniform(0.05, seed=36),
                        **resilience(tmp_path / label),
                    ),
                    on_error=on_error,
                    **options,
                )
            )
        sequential, pipelined = reports
        assert sequential.total_retries > 0
        assert pipelined.per_file == sequential.per_file
        assert pipelined.retries == sequential.retries
        assert pipelined.fallbacks == sequential.fallbacks
        assert pipelined.failed == sequential.failed
        for name, data in tree.new.items():
            if name not in pipelined.failed:
                assert pipelined.reconstructed[name] == data


class TestPipelinedWindowEightParity(TestPipelinedWindowOneParity):
    @pytest.fixture
    def window(self):
        return 8


class TestSupervisorConfiguresTheRun:
    """What the supervisor carries decides how the collection runs."""

    @pytest.fixture(scope="class")
    def probe_tree(self):
        return gcc_like(scale=0.05, seed=3)

    def test_breaker_refusals_do_not_abort_a_raise_run(self, probe_tree):
        """Breakers degrade gracefully: under ``on_error="raise"`` the
        files they refuse are reported, not raised."""
        report = sync_collection(
            probe_tree.old, probe_tree.new,
            SyncSupervisor(
                OursMethod(),
                retry=AdaptiveRetryPolicy(),
                fault_plan=FaultPlan.uniform(0.5, seed=7),
                breakers=BreakerBoard(failure_threshold=1),
            ),
            on_error="raise",
        )
        assert report.files_failed > 0
        assert all(
            error.startswith("CircuitOpenError")
            for error in report.failed.values()
        )
        for name, data in probe_tree.new.items():
            expected = (
                probe_tree.old[name] if name in report.failed else data
            )
            assert report.reconstructed[name] == expected

    def test_run_budget_forces_a_serial_run(self, probe_tree):
        """Pool workers would each charge a private copy of the budget,
        so a supervisor with one runs serially at any ``workers``."""
        reports = [
            sync_collection(
                probe_tree.old, probe_tree.new,
                SyncSupervisor(
                    OursMethod(),
                    fault_plan=FaultPlan.uniform(0.3, seed=7),
                    budget=DeadlineBudget(150.0),
                ),
                on_error="skip",
                workers=workers,
            )
            for workers in (1, 2)
        ]
        serial, pooled = reports
        assert serial.files_failed > 0
        assert pooled.workers == 1
        assert pooled.failed == serial.failed
        assert pooled.total_bytes == serial.total_bytes

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_supervisor_link_prices_the_whole_report(
        self, probe_tree, pipeline
    ):
        """Without ``link=``, the run is priced on the supervisor's link:
        the modelled wall clock and the recovery time come from one
        link model, the same figures as naming that link twice."""
        slow = LinkModel(bandwidth_bps=1_000_000.0, latency_s=0.15)

        def run(**link):
            return sync_collection(
                probe_tree.old, probe_tree.new,
                SyncSupervisor(
                    OursMethod(),
                    fault_plan=FaultPlan.uniform(0.2, seed=7),
                    link=slow,
                ),
                on_error="fallback",
                pipeline=pipeline,
                **link,
            )

        implied, named = run(), run(link=slow)
        assert implied.recovery_seconds > 0
        assert implied.recovery_seconds == named.recovery_seconds
        assert implied.link_wall_clock_s == named.link_wall_clock_s
        assert implied.roundtrips_on_wire == named.roundtrips_on_wire


class _DoomedMethod(SyncMethod):
    """Fails permanently on one file, succeeds elsewhere."""

    name = "doomed"

    def __init__(self, poison: str) -> None:
        self.poison = poison

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        # Keyed on content because methods only see bytes, not names.
        if new.startswith(self.poison.encode()):
            raise IntegrityError("this file can never be synchronised")
        return MethodOutcome(total_bytes=len(new), server_to_client=len(new))


class TestPerFileErrorIsolation:
    files_old = {"good.txt": b"old-good", "bad.txt": b"POISON old"}
    files_new = {"good.txt": b"new-good", "bad.txt": b"POISON new"}

    def test_on_error_raise_propagates(self, options):
        with pytest.raises(ReproError):
            sync_collection(
                self.files_old, self.files_new, _DoomedMethod("POISON"),
                **options,
            )

    def test_on_error_skip_keeps_client_copy(self, options):
        report = sync_collection(
            self.files_old, self.files_new, _DoomedMethod("POISON"),
            on_error="skip", **options,
        )
        assert report.files_failed == 1
        assert "IntegrityError" in report.failed["bad.txt"]
        assert report.reconstructed["bad.txt"] == b"POISON old"
        assert report.reconstructed["good.txt"] == b"new-good"

    def test_on_error_fallback_rescues_with_full_transfer(self, options):
        report = sync_collection(
            self.files_old, self.files_new, _DoomedMethod("POISON"),
            on_error="fallback", **options,
        )
        assert report.files_failed == 0
        assert report.fallbacks["bad.txt"] == "rescue-full"
        assert report.reconstructed == self.files_new
        assert report.per_file["bad.txt"].breakdown.get("s2c/rescue", 0) > 0

    def test_supervisor_failure_is_isolated_too(self, options):
        """Even a SyncFailedError (whole ladder dead) only costs that
        file when on_error='fallback'."""

        class AlwaysFailing(SyncMethod):
            name = "always-failing"

            def sync_file(self, old, new):
                raise SyncFailedError("ladder exhausted", attempts=9)

        report = sync_collection(
            self.files_old, self.files_new, AlwaysFailing(),
            on_error="fallback", **options,
        )
        assert report.reconstructed == self.files_new
        assert set(report.fallbacks) == {"good.txt", "bad.txt"}

    def test_invalid_on_error_rejected(self, options):
        with pytest.raises(ValueError):
            sync_collection(
                self.files_old, self.files_new, ZdeltaMethod(),
                on_error="explode", **options,
            )


class TestPerFileErrorIsolationPipelined(TestPerFileErrorIsolation):
    @pytest.fixture(params=[1, 8], ids=["window1", "window8"])
    def options(self, request):
        return {"pipeline": True, "window": request.param}


class _CrashOutsideParent(SyncMethod):
    """Dies hard in any process other than the one that built it —
    simulating a worker crash that a serial retry in the parent cures."""

    name = "crash-outside-parent"

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        if os.getpid() != self.parent_pid:
            os._exit(13)  # hard crash: no exception, no cleanup
        return MethodOutcome(total_bytes=len(new), server_to_client=len(new))


class TestExecutorCrashIsolation:
    def test_crashed_workers_retried_serially(self):
        tasks = [
            FileTask(f"f{index}", b"old", f"new-{index}".encode())
            for index in range(8)
        ]
        executor = SyncExecutor(workers=2, chunk_size=2)
        batch = executor.run(_CrashOutsideParent(), tasks)
        assert len(batch.files) == len(tasks)
        assert [result.name for result in batch.files] == [
            task.name for task in tasks
        ]
        assert all(result.error is None for result in batch.files)
        assert batch.chunk_retries >= 1

    def test_capture_errors_isolates_poisoned_file(self):
        tasks = [
            FileTask("ok", b"o", b"fine"),
            FileTask("bad", b"o", b"POISON"),
            FileTask("ok2", b"o", b"fine2"),
        ]
        batch = SyncExecutor(workers=1).run(
            _DoomedMethod("POISON"), tasks, capture_errors=True
        )
        errors = {result.name: result.error for result in batch.files}
        assert errors["ok"] is None and errors["ok2"] is None
        assert "IntegrityError" in errors["bad"]
        assert not batch.files[1].outcome.correct

    def test_capture_errors_false_still_raises(self):
        tasks = [FileTask("bad", b"o", b"POISON")]
        with pytest.raises(IntegrityError):
            SyncExecutor(workers=1).run(_DoomedMethod("POISON"), tasks)


class TestCliFaultFlags:
    def test_sync_with_fault_rate_smokes(self, tmp_path, capsys):
        from repro.cli import main

        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        for index in range(4):
            (old_dir / f"f{index}.txt").write_bytes(
                (f"content {index} " * 200).encode()
            )
            (new_dir / f"f{index}.txt").write_bytes(
                (f"content {index} " * 199 + "changed ").encode()
            )
        code = main([
            "sync", str(old_dir), str(new_dir),
            "--fault-rate", "0.05", "--fault-seed", "7", "--json",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["failed_files"] == 0
        assert payload["retries"] >= 0
        assert "retransmitted_bytes" in payload
