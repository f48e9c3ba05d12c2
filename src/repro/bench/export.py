"""Export benchmark rows to CSV/JSON for external plotting.

The terminal tables in :mod:`repro.bench.report` preserve the shapes; for
paper-style figures people want the raw series.  These helpers flatten
:class:`~repro.bench.runner.CollectionRun` rows (or any mapping rows)
into the two formats everything can read.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.bench.runner import CollectionRun


def run_to_row(run: CollectionRun) -> dict[str, object]:
    """Flatten one collection run into a plain dict.

    :meth:`CollectionRun.row` plus one ``breakdown.<phase>`` column per
    phase of the merged per-file breakdown.
    """
    row = run.row()
    for key, value in sorted(run.breakdown.items()):
        row[f"breakdown.{key}"] = value
    return row


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows as CSV text (union of all keys, stable order)."""
    if not rows:
        return ""
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(dict(row))
    return buffer.getvalue()


def rows_to_json(rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows as pretty JSON."""
    return json.dumps([dict(row) for row in rows], indent=2, sort_keys=True)


def export_runs(
    runs: Sequence[CollectionRun],
    path: str | Path,
    fmt: str | None = None,
) -> Path:
    """Write runs to ``path``; format inferred from the suffix unless
    given explicitly (``"csv"`` or ``"json"``)."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower() or "csv"
    rows = [run_to_row(run) for run in runs]
    if fmt == "csv":
        payload = rows_to_csv(rows)
    elif fmt == "json":
        payload = rows_to_json(rows)
    else:
        raise ValueError(f"unsupported export format {fmt!r}")
    path.write_text(payload)
    return path
