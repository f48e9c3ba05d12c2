"""Run methods over collection pairs and collect comparable rows."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.methods import SyncMethod
from repro.collection.sync import CollectionReport, sync_collection

#: Row columns whose value the report holds under another name.
ALIASES = {
    "changed_bytes": "changed_transfer_bytes",
    "retries": "total_retries",
    "fallback_files": "files_fallback",
    "failed_files": "files_failed",
}


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class CollectionRun:
    """One (method, collection-pair) measurement: a report and its wall time.

    Besides the wire-byte accounting, each run tracks the compute cost:
    worker count, total CPU seconds across all processes, the per-file
    wall-clock percentiles, and the cache hit/miss counters — so speedups
    from parallelism and caching are measured, not anecdotal.

    Every column of :meth:`row` reads as an attribute too:
    ``run.health_score`` is ``run.report.health_score`` and
    ``run.changed_bytes`` resolves through :data:`ALIASES`.
    """

    method: str
    report: CollectionReport = field(repr=False)
    elapsed_seconds: float

    def __getattr__(self, name: str):
        # Only reached for names that are not fields or properties.
        report = self.__dict__.get("report")
        if report is None:
            raise AttributeError(name)
        return getattr(report, ALIASES.get(name, name))

    @property
    def p50_file_seconds(self) -> float:
        return _percentile(list(self.report.per_file_seconds.values()), 0.50)

    @property
    def p95_file_seconds(self) -> float:
        return _percentile(list(self.report.per_file_seconds.values()), 0.95)

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def row(self) -> dict[str, object]:
        """The run flattened to one row of scalar columns.

        The report's :meth:`~CollectionReport.counters` under their
        column names, then the run's own timings.  Seconds and scores
        are rounded to 4 places, the per-file percentiles to 6.  The
        per-phase ``breakdown`` is left to the caller to attach.
        """
        columns = {attribute: column for column, attribute in ALIASES.items()}
        values = {
            **self.report.counters(),
            "method": self.method,
            "elapsed_seconds": self.elapsed_seconds,
        }
        row: dict[str, object] = {
            columns.get(name, name): (
                round(value, 4) if isinstance(value, float) else value
            )
            for name, value in values.items()
        }
        row["p50_file_seconds"] = round(self.p50_file_seconds, 6)
        row["p95_file_seconds"] = round(self.p95_file_seconds, 6)
        return row


def run_method_on_collection(
    method: SyncMethod,
    old_files: dict[str, bytes],
    new_files: dict[str, bytes],
    **options,
) -> CollectionRun:
    """Synchronise one collection pair and time it.

    ``options`` are :func:`~repro.collection.sync.sync_collection`'s.
    A :class:`~repro.resilience.SyncSupervisor` run is named after the
    method it supervises.
    """
    from repro.resilience import SyncSupervisor

    started = time.perf_counter()
    report = sync_collection(old_files, new_files, method, **options)
    if isinstance(method, SyncSupervisor):
        method = method.method
    return CollectionRun(method.name, report, time.perf_counter() - started)
