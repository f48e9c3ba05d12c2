"""Pin every counter view of a collection run to committed values.

A run's counters surface in two places: the export row
(:func:`repro.bench.export.run_to_row`) and ``repro sync --json``.
Each scenario below is a small seeded run that drives one family of
counters (parallel dispatch, pipelining, faults under both isolation
modes, checkpoints, adaptive resilience, surgical repair, sibling
references).  Its row must match ``data/counter_views.json`` column
for column and value for value, except the wall-clock columns, which
are only required to be present.  The CLI payload must still carry
every key and value recorded there.

Process-wide caches are reset before each run so the cache counters
describe that run alone.  To regenerate the expectations after an
intended change to a reported value::

    PYTHONPATH=src python -m tests.test_counter_views > tests/data/counter_views.json
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.export import run_to_row
from repro.bench.methods import MultiroundRsyncMethod, OursMethod
from repro.bench.runner import run_method_on_collection
from repro.cli import main
from repro.net import FaultPlan
from repro.net.faults import CollisionFaultPlan
from repro.parallel.cache import (
    reset_default_cache,
    reset_default_reference_cache,
)
from repro.resilience import (
    AdaptiveRetryPolicy,
    BreakerBoard,
    CheckpointStore,
    RetryPolicy,
    SyncSupervisor,
)
from repro.reuse.memo import reset_default_delta_memo
from repro.workloads import gcc_like
from tests.conftest import make_version_pair

EXPECTED = Path(__file__).resolve().parent / "data" / "counter_views.json"

#: Columns measured in wall-clock or CPU time: present, never compared.
WALL_CLOCK = (
    "elapsed_seconds",
    "cpu_seconds",
    "p50_file_seconds",
    "p95_file_seconds",
)


def _tree() -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A small source tree plus two added files: a rename and a variant."""
    tree = gcc_like(scale=0.05, seed=21)
    old, new = dict(tree.old), dict(tree.new)
    first, second = sorted(old)[:2]
    new["renamed/copy.c"] = old[first]
    new["renamed/variant.c"] = old[second][:-40] + b"/* variant */\n"
    return old, new


def _repair_pair() -> tuple[dict[str, bytes], dict[str, bytes]]:
    old, new = make_version_pair(seed=85, nbytes=30_000)
    return {"a.bin": old, "same.bin": b"same"}, {"a.bin": new, "same.bin": b"same"}


#: name -> (method factory, input factory, run options).  A
#: ``"supervisor"`` option holds the keywords of the
#: :class:`~repro.resilience.SyncSupervisor` the method runs under.
SCENARIOS = {
    "sequential": (OursMethod, _tree, {}),
    "workers2-pickle": (OursMethod, _tree, {"workers": 2}),
    "pipelined": (OursMethod, _tree, {"pipeline": True, "window": 8}),
    "faults-skip": (
        OursMethod,
        _tree,
        {"supervisor": {"fault_plan": ("uniform", 0.5, 5)}, "on_error": "skip"},
    ),
    "faults-fallback": (
        OursMethod,
        _tree,
        {
            "supervisor": {"fault_plan": ("uniform", 0.5, 5)},
            "on_error": "fallback",
        },
    ),
    "checkpoints": (
        OursMethod, _tree, {"supervisor": {"checkpoints": "journals"}}
    ),
    "checkpoints-faults": (
        OursMethod,
        _tree,
        {
            "supervisor": {
                "checkpoints": "journals",
                "fault_plan": ("disconnect", 40, 33),
                "retry": RetryPolicy(max_attempts=4),
            },
            "on_error": "fallback",
        },
    ),
    "adaptive": (
        OursMethod,
        _tree,
        {
            "supervisor": {
                "fault_plan": ("uniform", 0.3, 7),
                "retry": AdaptiveRetryPolicy(),
                "breakers": BreakerBoard(failure_threshold=3),
                "deadline_s": 120.0,
            },
            "on_error": "skip",
        },
    ),
    "collision-repair": (
        MultiroundRsyncMethod,
        _repair_pair,
        {"supervisor": {"fault_plan": ("collision", 2)}},
    ),
    "sibling-refs": (OursMethod, _tree, {"sibling_refs": True}),
}


def _fault_plan(spec):
    kind, *args = spec
    if kind == "uniform":
        rate, seed = args
        return FaultPlan.uniform(rate, seed=seed)
    if kind == "disconnect":
        after, seed = args
        return FaultPlan(seed=seed, disconnect_after_sends=after)
    (seed,) = args
    return CollisionFaultPlan(seed=seed)


def _cold_caches() -> None:
    reset_default_cache()
    reset_default_reference_cache()
    reset_default_delta_memo()


def scenario_row(name: str, workdir: Path) -> dict[str, object]:
    """The export row of one scenario, run with cold caches."""
    factory, inputs, options = SCENARIOS[name]
    options = copy.deepcopy(options)  # a fresh, unused retry policy
    method = factory()
    supervision = options.pop("supervisor", None)
    if supervision is not None:
        if "fault_plan" in supervision:
            supervision["fault_plan"] = _fault_plan(supervision["fault_plan"])
        if "checkpoints" in supervision:
            journals = workdir / supervision["checkpoints"]
            supervision["checkpoints"] = CheckpointStore(journals)
        method = SyncSupervisor(method, **supervision)
    old, new = inputs()
    _cold_caches()
    return run_to_row(run_method_on_collection(method, old, new, **options))


def cli_payload(workdir: Path) -> dict[str, object]:
    """``repro sync --json --sibling-refs`` over the scenario tree on disk."""
    import contextlib
    import io

    for side, files in zip(("old", "new"), _tree()):
        for name, data in files.items():
            path = workdir / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    _cold_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([
            "sync", str(workdir / "old"), str(workdir / "new"),
            "--json", "--sibling-refs",
        ])
    assert status == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", SCENARIOS)
def test_row_matches_committed_values(name, expected, tmp_path):
    row = scenario_row(name, tmp_path)
    want = expected["rows"][name]
    assert set(row) == set(want)
    for column in WALL_CLOCK:
        row.pop(column)
        want.pop(column)
    assert row == want


def test_cli_json_keeps_every_recorded_key(expected, tmp_path):
    payload = cli_payload(tmp_path)
    want = expected["cli"]
    missing = set(want) - set(payload)
    assert not missing
    for key, value in want.items():
        if key not in WALL_CLOCK:
            assert payload[key] == value, key


def _regenerate() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        rows = {}
        for name in SCENARIOS:
            (root / name).mkdir()
            rows[name] = scenario_row(name, root / name)
        (root / "cli").mkdir()
        return {"rows": rows, "cli": cli_payload(root / "cli")}


if __name__ == "__main__":
    print(json.dumps(_regenerate(), indent=2, sort_keys=True))
