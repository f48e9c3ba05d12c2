"""Whole-collection synchronization.

The paper's target scenario is not one file but hundreds of thousands:
this layer exchanges a fingerprint manifest to find files that changed,
skips the (typically large) unchanged majority, transfers added files in
full, and runs a per-file synchronization method over the rest, with all
costs aggregated.
"""

from repro.collection.manifest import (
    Manifest,
    ManifestDiff,
    ManifestFormatError,
    diff_manifests,
)
from repro.collection.pipeline import CollectionScheduler, PipelineRun
from repro.collection.reconcile import reconcile_manifests
from repro.collection.store import (
    TMP_SUFFIX,
    CollectionStore,
    atomic_write_bytes,
    load_manifest,
    save_manifest,
)
from repro.collection.scrub import ScrubReport, StoreScrubber
from repro.collection.sync import CollectionReport, sync_collection

__all__ = [
    "CollectionReport",
    "CollectionScheduler",
    "CollectionStore",
    "PipelineRun",
    "ScrubReport",
    "StoreScrubber",
    "Manifest",
    "ManifestDiff",
    "TMP_SUFFIX",
    "atomic_write_bytes",
    "diff_manifests",
    "ManifestFormatError",
    "load_manifest",
    "reconcile_manifests",
    "save_manifest",
    "sync_collection",
]
