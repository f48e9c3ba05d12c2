"""The repository's end-to-end benchmark: four seeded workloads.

Run one workload (the last line of standard output is a JSON result)::

    python3 perf/run.py --workload gcc-release --seed 1 --seconds 20 --trace 0

Leave out ``--workload`` to run all four, each in a fresh interpreter,
and add ``--out FILE`` to append the results to a JSON file; compare two
such files, run by run paired on workload and seed, against the bounds
in ``BENCHMARK.json``::

    python3 perf/run.py --seed 1 --out a.json
    python3 perf/run.py --compare a.json b.json

The load is a closed loop: one caller, one update at a time, serial
(``workers=1``).  After one discarded warm-up update, updates repeat
until ``--seconds`` have passed; the timings are those of the fastest
update.  ``--trace 1`` alternates untraced and
traced updates and reports per-layer self time, call counts and the
tracing overhead instead of the end-to-end metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
DIGESTS = PERF / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Modules a workload imports from the program, timed by ``setup_s``.
LAYER_MODULES = (
    "repro.bench.methods",
    "repro.collection.sync",
    "repro.collection.pipeline",
    "repro.parallel.cache",
    "repro.reuse",
    "repro.net.channel",
)
IMPORT_PROBES = 5
MIN_UPDATES = 3
MIN_TRACED_UPDATES = 2
#: End-to-end metrics that depend only on the inputs, never on timing.
EXACT = ("wire_bytes", "roundtrips", "link_s")


def _benchmark() -> dict:
    """``BENCHMARK.json``: the workloads, and every metric with its unit."""
    return json.loads(BENCHMARK.read_text())


def _workload_names() -> list[str]:
    return [workload["name"] for workload in _benchmark()["workloads"]]


def _use_source_tree() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: no program source at {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _import_probe() -> None:
    """Print how long importing the program's layers takes, cold."""
    import importlib

    _use_source_tree()
    started = time.perf_counter()
    for module in LAYER_MODULES:
        importlib.import_module(module)
    print(time.perf_counter() - started)


def _import_seconds() -> float:
    """Median import time over fresh interpreters, one at a time."""
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--import-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _check_digest(name: str, seed: int, workload) -> None:
    from inputs import input_digest

    pinned = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    if pinned is None:
        return
    actual = input_digest(workload.inputs)
    if actual != pinned:
        sys.exit(
            f"perf: {name} seed {seed} inputs changed: sha256 {actual}, "
            f"pinned {pinned} in {DIGESTS.name}"
        )


class Measurement:
    """The updates of one run and what they add up to.

    With a ``tracer`` every update runs with the layer spans installed.
    """

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.prepare_s: list[float] = []
        self.update_s: list[float] = []
        self.updates = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_update(self, record: bool = True) -> None:
        """Prepare, run and check one update."""
        from repro.exceptions import ReproError

        workload = self.workload
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            state = workload.prepare()
            prepared = time.perf_counter()
            try:
                result = workload.run(state)
            except ReproError as exc:
                result = exc
            finished = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if isinstance(result, ReproError):
            self.attempted += workload.ops_per_update
            self.failed += workload.ops_per_update
            self.errors.append(f"{type(result).__name__}: {result}")
            return
        update = workload.account(state, result)
        self.attempted += update.attempted
        self.failed += update.failed
        if update.failed:
            self.errors.append(f"{update.failed} of {update.attempted} wrong")
        if record:
            self.prepare_s.append(prepared - started)
            self.update_s.append(finished - prepared)
            self.updates.append(update)

    def deterministic(self) -> None:
        """Every update of one input must cost the same bytes and trips."""
        costs = {
            (u.wire_bytes, u.up_bytes, u.down_bytes, u.roundtrips)
            for u in self.updates
        }
        if len(costs) > 1:
            self.errors.append(f"wire accounting differs between updates: {costs}")

    def fastest(self):
        """The update with the shortest wall time, and that time.

        Every update repeats the same work on the same inputs from cold
        caches, so the spread of its wall time over a run is interference
        from the rest of the machine; the fastest update filters that out,
        as ``timeit`` does.
        """
        seconds, update = min(zip(self.update_s, self.updates), key=lambda x: x[0])
        return update, seconds

    def end_to_end(self, import_s: float) -> dict[str, float]:
        update, update_s = self.fastest()
        return {
            "sync_mb_per_s": self.workload.new_bytes / update_s / 1e6,
            "wire_bytes": update.wire_bytes,
            "roundtrips": update.roundtrips,
            "link_s": update.link_s,
            "setup_s": import_s + statistics.median(self.prepare_s),
        }


def _layer_values(untraced: Measurement, traced: Measurement) -> dict[str, float]:
    """Per-layer self seconds and calls per traced update, the update
    counters, and what tracing cost."""
    from tracer import layer_names

    updates = len(traced.updates)
    values = {}
    for layer in layer_names():
        values[f"{layer}.self_s"] = traced.tracer.self_s[layer] / updates
        values[f"{layer}.calls"] = traced.tracer.calls[layer] / updates
    for counter in untraced.updates[0].counters:
        values[counter] = statistics.mean(
            update.counters[counter] for update in untraced.updates
        )
    # Each traced update runs right after an untraced one, so the two
    # share the machine's state; the median pair filters out the rest.
    values["trace.overhead"] = statistics.median(
        traced_s / untraced_s - 1
        for untraced_s, traced_s in zip(untraced.update_s, traced.update_s)
    )
    return values


def _measure(name: str, seed: int, seconds: int, trace: bool) -> int:
    _use_source_tree()
    from tracer import Tracer
    from workloads import WORKLOADS

    # Stopped from outside, still remove the work directory below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".perf_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        workload = WORKLOADS[name](seed, workdir)
        _check_digest(name, seed, workload)
        import_s = _import_seconds()
        measurement = Measurement(workload)
        measurement.one_update(record=False)  # warm-up, discarded
        traced = Measurement(workload, Tracer()) if trace else None
        runs = [measurement] if traced is None else [measurement, traced]

        started = time.perf_counter()
        for count in itertools.count(1):
            for run in runs:
                run.one_update()
            enough = count >= (MIN_TRACED_UPDATES if trace else MIN_UPDATES)
            if enough and time.perf_counter() - started >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    errors = [error for run in runs for error in run.errors]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if not all(run.updates for run in runs):
        print(f"{name} seed={seed}: every update failed: {errors}")
        return 1
    for run in runs:
        run.deterministic()
    updates = len(measurement.updates)
    print(
        f"{name} seed={seed}: {updates} timed updates after 1 warm-up, "
        f"{measurement.workload.ops_per_update} files or clients each; "
        f"{attempted} files or clients checked, {failed} wrong"
    )
    for error in errors:
        print(f"  error: {error}")
    if traced is not None:
        values = _layer_values(measurement, traced)
    else:
        values = measurement.end_to_end(import_s)
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    if {metric["name"] for metric in declared} != set(values):
        raise RuntimeError("measured metrics differ from BENCHMARK.json")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    for metric, entry in metrics.items():
        print(f"  {metric:40s} {entry['value']:16.6g} {entry['unit']}")
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _run_all(seed: int, seconds: int, trace: bool, out: Path | None) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    results = json.loads(out.read_text()) if out and out.exists() else {"runs": []}
    for name in _workload_names():
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if child.returncode == 0 and lines:
            results["runs"].append(
                {
                    "workload": name,
                    "seed": seed,
                    "trace": int(trace),
                    "result": json.loads(lines[-1]),
                }
            )
    if out is not None:
        out.write_text(json.dumps(results, indent=1) + "\n")
    return status


def _paired_runs(path: Path) -> dict[tuple[str, int], dict[str, float]]:
    """End-to-end metrics by (workload, seed); the median of repeats."""
    repeats: dict[tuple[str, int], dict[str, list[float]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        metrics = repeats.setdefault((run["workload"], run["seed"]), {})
        for metric, entry in run["result"]["metrics"].items():
            metrics.setdefault(metric, []).append(entry["value"])
    return {
        key: {metric: statistics.median(values) for metric, values in metrics.items()}
        for key, metrics in repeats.items()
    }


def _compare(first: Path, second: Path) -> int:
    """Per workload and end-to-end metric: B's change from A on each seed.

    Runs are paired by (workload, seed).  The metrics in ``EXACT`` are a
    function of the inputs alone, so any change on a seed is real: worse
    on any seed is ``regressed``, better is ``changed``.  For the timed
    metrics the verdict takes the median of the per-seed changes
    against the metric's bound, and calls it ``unresolved`` when the
    spread of those changes (Q3 - Q1) is wider than the bound.
    """
    declared = {metric["name"]: metric for metric in _benchmark()["end_to_end"]}
    before, after = _paired_runs(first), _paired_runs(second)
    if set(before) != set(after):
        unpaired = sorted(set(before) ^ set(after))
        print(f"perf: {first} and {second} hold different (workload, seed) runs: {unpaired}")
        return 2
    print(f"{'workload':20s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    regressed = False
    for workload in sorted({workload for workload, _seed in before}):
        seeds = sorted(seed for name, seed in before if name == workload)
        for metric, spec in declared.items():
            pairs = [
                (before[workload, seed][metric], after[workload, seed][metric])
                for seed in seeds
            ]
            sign = -1 if spec["better"] == "higher" else 1
            worse = [sign * (b - a) / abs(a) for a, b in pairs]
            if metric in EXACT:
                change = max(worse, key=abs)
                widest = 0.0
                verdict = "regressed" if max(worse) > 0 else "changed" if change else "ok"
            else:
                change = statistics.median(worse)
                widest = 0.0
                if len(worse) > 1:
                    low, _median, high = statistics.quantiles(worse, n=4)
                    widest = high - low
                if change > spec["bound"]:
                    verdict = "regressed"
                elif widest > spec["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            regressed = regressed or verdict == "regressed"
            median_a = statistics.median(a for a, _b in pairs)
            median_b = statistics.median(b for _a, b in pairs)
            bound = 0.0 if metric in EXACT else spec["bound"]
            print(
                f"{workload:20s} {metric:14s} {median_a:12.6g} {median_b:12.6g} "
                f"{sign * change:+8.2%} {bound:6.0%} {widest:7.2%}  {verdict}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=_workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append results to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.import_probe:
        _import_probe()
        return 0
    if args.compare:
        return _compare(*args.compare)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload is None:
        return _run_all(args.seed, args.seconds, bool(args.trace), args.out)
    if args.out is not None:
        parser.error("--out collects the runs of all workloads; drop --workload")
    return _measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
