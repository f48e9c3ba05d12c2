"""Benchmark harness: method adapters, collection runners, table/figure output.

Every method under evaluation (our protocol, rsync default/optimal, the
zdelta and vcdiff local delta coders, full transfer) is wrapped in a
:class:`~repro.bench.methods.SyncMethod` with uniform accounting so the
per-table benchmark scripts stay small.
"""

from repro.bench.methods import (
    AdaptiveMethod,
    FullTransferMethod,
    MethodOutcome,
    MultiroundRsyncMethod,
    OursMethod,
    RsyncMethod,
    RsyncOptimalMethod,
    SyncMethod,
    VcdiffMethod,
    ZdeltaMethod,
    standard_methods,
)
from repro.bench.export import export_runs, run_to_row
from repro.bench.runner import CollectionRun, run_method_on_collection
from repro.bench.report import format_kb, render_grouped_bars, render_table

__all__ = [
    "AdaptiveMethod",
    "CollectionRun",
    "FullTransferMethod",
    "MethodOutcome",
    "MultiroundRsyncMethod",
    "OursMethod",
    "RsyncMethod",
    "RsyncOptimalMethod",
    "SyncMethod",
    "VcdiffMethod",
    "ZdeltaMethod",
    "export_runs",
    "format_kb",
    "render_grouped_bars",
    "render_table",
    "run_method_on_collection",
    "run_to_row",
    "standard_methods",
]
