"""Soak harness: sustained seeded fault schedules over collections.

One-shot fault tests prove a single failure recovers; a *soak* proves the
resilience stack holds its invariants under sustained, shaped hostility:
every healthy file completes, pathological files are reported (never
raised), accounting counters stay consistent, and the whole thing is
deterministic per ``(shape, seed)`` cell.

:func:`run_soak` sweeps the matrix of
:func:`~repro.net.chaos.chaos_plan` shapes × seeds over a seeded
workload, running each cell through :func:`~repro.collection.sync_collection`
with the adaptive layer on (AIMD retry, per-file breakers, per-file
deadline, ``on_error="skip"``), and folds each report into a
:class:`SoakRow`.  :func:`run_scrub_soak` does the same for bit rot at
rest: rot a store, scrub it, repair it over a faulty link, re-verify.
``tests/test_chaos_soak.py`` and ``tests/test_store_scrub.py`` run both
matrices and assert their invariants; each report's ``render()`` is the
failure message.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.methods import MultiroundRsyncMethod, OursMethod
from repro.collection import (
    CollectionStore,
    Manifest,
    StoreScrubber,
    sync_collection,
)
from repro.net.chaos import BitRotPlan, chaos_plan
from repro.resilience import AdaptiveRetryPolicy, BreakerBoard, SyncSupervisor
from repro.workloads import gcc_like

#: (workload scale, headline fault rate, per-file deadline seconds)
SOAK_PROFILES: dict[str, tuple[float, float, float]] = {
    "short": (0.04, 0.12, 1800.0),
    "long": (0.15, 0.2, 3600.0),
}

DEFAULT_SHAPES = ("bursty", "periodic", "degrading")
DEFAULT_SEEDS = (1, 2, 3)

#: Consecutive failures that open a file's circuit breaker in a cell.
BREAKER_THRESHOLD = 3


@dataclass
class SoakRow:
    """One (shape, seed) cell of the soak matrix."""

    shape: str
    seed: int
    files_changed: int
    files_synced: int
    files_failed: int
    retries: int
    faults_injected: int
    retransmitted_bytes: int
    recovery_seconds: float
    health_score: float
    breaker_opens: int
    deadline_salvages: int
    adaptive_backoff_s: float
    elapsed_seconds: float
    failed_names: list[str] = field(default_factory=list)

    @property
    def completed_all_healthy(self) -> bool:
        """Did every file the faults didn't kill come through verified?"""
        return self.files_synced + self.files_failed == self.files_changed


@dataclass
class SoakReport:
    """The full matrix plus the knobs that produced it."""

    profile: str
    shapes: tuple[str, ...]
    seeds: tuple[int, ...]
    rate: float
    deadline_s: float
    rows: list[SoakRow] = field(default_factory=list)

    @property
    def total_failed(self) -> int:
        return sum(row.files_failed for row in self.rows)

    @property
    def all_cells_consistent(self) -> bool:
        return all(row.completed_all_healthy for row in self.rows)

    def render(self) -> str:
        header = (
            f"chaos soak [{self.profile}] rate={self.rate} "
            f"deadline={self.deadline_s:.0f}s "
            f"breaker_threshold={BREAKER_THRESHOLD}"
        )
        lines = [header, "-" * len(header)]
        columns = (
            f"{'shape':<10} {'seed':>4} {'files':>5} {'ok':>4} {'fail':>4} "
            f"{'retries':>7} {'faults':>6} {'retx B':>9} {'health':>6} "
            f"{'opens':>5} {'salvage':>7} {'backoff s':>9}"
        )
        lines.append(columns)
        for row in self.rows:
            lines.append(
                f"{row.shape:<10} {row.seed:>4} {row.files_changed:>5} "
                f"{row.files_synced:>4} {row.files_failed:>4} "
                f"{row.retries:>7} {row.faults_injected:>6} "
                f"{row.retransmitted_bytes:>9,} {row.health_score:>6.2f} "
                f"{row.breaker_opens:>5} {row.deadline_salvages:>7} "
                f"{row.adaptive_backoff_s:>9.1f}"
            )
        verdict = (
            "every healthy file synced; pathological files reported"
            if self.all_cells_consistent
            else "INCONSISTENT CELLS — see rows above"
        )
        lines.append(f"=> {verdict} ({self.total_failed} failures total)")
        return "\n".join(lines)


def run_soak(
    shapes: tuple[str, ...] = DEFAULT_SHAPES,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    profile: str = "short",
) -> SoakReport:
    """Run the soak matrix and return the report.

    Every cell gets a fresh seeded workload and a fresh
    :class:`~repro.net.chaos.ScheduledFaultPlan`, so cells are
    independent and individually reproducible.
    """
    if profile not in SOAK_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(SOAK_PROFILES)}, got {profile!r}"
        )
    scale, rate, deadline_s = SOAK_PROFILES[profile]

    report = SoakReport(
        profile=profile,
        shapes=tuple(shapes),
        seeds=tuple(seeds),
        rate=rate,
        deadline_s=deadline_s,
    )
    for shape in shapes:
        for seed in seeds:
            tree = gcc_like(scale=scale, seed=100 + seed)
            plan = chaos_plan(shape, seed=seed, rate=rate)
            started = time.perf_counter()
            supervisor = SyncSupervisor(
                OursMethod(),
                retry=AdaptiveRetryPolicy(),
                fault_plan=plan,
                breakers=BreakerBoard(failure_threshold=BREAKER_THRESHOLD),
                deadline_s=deadline_s,
            )
            cell = sync_collection(
                tree.old, tree.new, supervisor, workers=1, on_error="skip"
            )
            elapsed = time.perf_counter() - started
            synced = sum(
                1
                for name in cell.per_file
                if name not in cell.failed
            )
            totals = cell.totals
            report.rows.append(
                SoakRow(
                    shape=shape,
                    seed=seed,
                    files_changed=cell.files_changed,
                    files_synced=synced,
                    files_failed=cell.files_failed,
                    retries=totals.retries,
                    faults_injected=plan.faults_injected,
                    retransmitted_bytes=totals.retransmitted_bytes,
                    recovery_seconds=round(totals.recovery_seconds, 2),
                    health_score=round(totals.health_score, 4),
                    breaker_opens=totals.breaker_opens,
                    deadline_salvages=totals.deadline_salvages,
                    adaptive_backoff_s=round(totals.adaptive_backoff_s, 2),
                    elapsed_seconds=round(elapsed, 3),
                    failed_names=sorted(cell.failed),
                )
            )
    return report


# ----------------------------------------------------------------------
# Scrub soak: bit rot at rest → detect → repair → converge
# ----------------------------------------------------------------------

#: (workload scale, files bit-rotted, bit flips per file, repair-link
#: headline fault rate) per profile.  The repair sync runs over a
#: *hostile* link on purpose: convergence must survive both the rot and
#: the weather.
SCRUB_SOAK_PROFILES: dict[str, tuple[float, int, int, float]] = {
    "short": (0.04, 3, 2, 0.08),
    "long": (0.15, 6, 3, 0.15),
}

#: Manifest entries audited per scrub slice in the soak — small enough
#: that every soak cell exercises the resumable cursor several times.
SCRUB_SOAK_SLICE = 4

#: Fault schedule shape of the repair link.
SCRUB_SOAK_SHAPE = "bursty"


@dataclass
class ScrubSoakRow:
    """One seed of the scrub soak: rot → detect → repair → re-verify."""

    seed: int
    files_total: int
    files_rotted: int
    files_deleted: int
    scrub_slices: int
    divergent_found: int
    missing_found: int
    quarantined: int
    repair_bytes_total: int
    collisions_detected: int
    repair_rounds: int
    retries: int
    fallback_files: int
    converged: bool
    elapsed_seconds: float

    @property
    def detected_all_damage(self) -> bool:
        """Did the scrub find every file the plan damaged?"""
        return (
            self.divergent_found + self.missing_found
            >= self.files_rotted + self.files_deleted
        )


@dataclass
class ScrubSoakReport:
    """The scrub soak matrix plus the knobs that produced it."""

    profile: str
    seeds: tuple[int, ...]
    rate: float
    rows: list[ScrubSoakRow] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(
            row.converged and row.detected_all_damage for row in self.rows
        )

    def render(self) -> str:
        header = (
            f"scrub soak [{self.profile}] shape={SCRUB_SOAK_SHAPE} "
            f"rate={self.rate}"
        )
        lines = [header, "-" * len(header)]
        lines.append(
            f"{'seed':>4} {'files':>5} {'rot':>4} {'del':>4} {'slices':>6} "
            f"{'diverg':>6} {'miss':>4} {'quar':>4} {'rep B':>8} "
            f"{'coll':>4} {'rounds':>6} {'retry':>5} {'conv':>5}"
        )
        for row in self.rows:
            lines.append(
                f"{row.seed:>4} {row.files_total:>5} {row.files_rotted:>4} "
                f"{row.files_deleted:>4} {row.scrub_slices:>6} "
                f"{row.divergent_found:>6} {row.missing_found:>4} "
                f"{row.quarantined:>4} {row.repair_bytes_total:>8,} "
                f"{row.collisions_detected:>4} {row.repair_rounds:>6} "
                f"{row.retries:>5} {str(row.converged):>5}"
            )
        verdict = (
            "every rotted replica converged back to byte-identical"
            if self.all_converged
            else "DIVERGENCE SURVIVED REPAIR — see rows above"
        )
        lines.append(f"=> {verdict}")
        return "\n".join(lines)


def run_scrub_soak(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    profile: str = "short",
) -> ScrubSoakReport:
    """Prove a bit-rotted replica converges back to byte-identical.

    Each seed materialises a seeded workload into an on-disk store,
    applies :class:`~repro.net.chaos.BitRotPlan` damage (plus one
    deterministic whole-file deletion), scrubs the store in resumable
    rate-limited slices, repairs the damage over a *faulty* link with the
    adaptive supervisor and ``on_error="fallback"``, then re-scrubs and
    byte-compares the store against the pristine source.  Each cell works
    in a fresh temporary directory.
    """
    if profile not in SCRUB_SOAK_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(SCRUB_SOAK_PROFILES)}, "
            f"got {profile!r}"
        )
    scale, files_affected, flips_per_file, rate = SCRUB_SOAK_PROFILES[profile]

    report = ScrubSoakReport(profile=profile, seeds=tuple(seeds), rate=rate)
    for seed in seeds:
        tree = gcc_like(scale=scale, seed=200 + seed)
        source = tree.new
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            store = CollectionStore(Path(workdir) / f"store-{seed}")
            store.write_collection(source)
            manifest = Manifest.of_collection(source)

            rot = BitRotPlan(
                seed=seed,
                files_affected=files_affected,
                flips_per_file=flips_per_file,
            )
            victims = rot.apply(store.root)
            # One deterministic whole-file loss exercises the missing
            # path alongside the divergent one.
            deleted = sorted(set(source) - set(victims))[seed % 3]
            store.path_for(deleted).unlink()

            scrubber = StoreScrubber(
                store,
                manifest,
                cursor_path=Path(workdir) / f"cursor-{seed}",
                rate_limit_bps=1 << 30,
            )
            slices = 0
            merged = None
            while True:
                part = scrubber.scrub(max_entries=SCRUB_SOAK_SLICE)
                slices += 1
                if merged is None:
                    merged = part
                else:
                    merged.scanned += part.scanned
                    merged.ok += part.ok
                    merged.divergent.extend(part.divergent)
                    merged.missing.extend(part.missing)
                    merged.quarantined.extend(part.quarantined)
                if part.completed:
                    break

            repair = scrubber.repair(
                source,
                report=merged,
                method=SyncSupervisor(
                    MultiroundRsyncMethod(),
                    retry=AdaptiveRetryPolicy(),
                    fault_plan=chaos_plan(
                        SCRUB_SOAK_SHAPE, seed=seed, rate=rate
                    ),
                ),
                on_error="fallback",
                workers=1,
            )
            final = scrubber.scrub_all(quarantine=False)
            converged = final.clean and all(
                store.read_file(name) == data
                for name, data in source.items()
            )
        report.rows.append(
            ScrubSoakRow(
                seed=seed,
                files_total=len(source),
                files_rotted=len(victims),
                files_deleted=1,
                scrub_slices=slices,
                divergent_found=len(merged.divergent),
                missing_found=len(merged.missing),
                quarantined=len(merged.quarantined),
                repair_bytes_total=repair.total_bytes,
                collisions_detected=repair.collisions_detected,
                repair_rounds=repair.repair_rounds,
                retries=repair.total_retries,
                fallback_files=repair.files_fallback,
                converged=converged,
                elapsed_seconds=round(time.perf_counter() - started, 3),
            )
        )
    return report
