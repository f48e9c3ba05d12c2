"""Synchronise an entire replicated collection with any per-file method."""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace

from repro.syncmethod import MethodOutcome, SyncMethod
from repro.collection.manifest import Manifest, ManifestDiff, diff_manifests
from repro.exceptions import IntegrityError
from repro.parallel.executor import FileTask, SyncExecutor


@dataclass
class CollectionReport:
    """Aggregated accounting for one collection update.

    Byte accounting (``total_bytes``, ``per_file``, ``reconstructed``) is
    deterministic and identical across serial and parallel execution; the
    compute-cost fields (``per_file_seconds``, ``cpu_seconds``, cache
    counters) describe where and how the work actually ran.

    Every per-file counter is declared once, on
    :class:`~repro.syncmethod.MethodOutcome`; the report's value of it is
    the merge of all files' outcomes (:attr:`totals`), read as a plain
    attribute: ``report.health_score`` is ``report.totals.health_score``.
    The executor's cache counters (``caches``) read the same way:
    ``report.cache_hits`` is ``report.caches["cache_hits"]``.

    The resilience fields stay empty on a clean run: ``retries`` maps a
    file to the failed attempts its sync burnt, ``fallbacks`` to the
    ladder rung (or collection-level rescue) that finally moved it, and
    ``failed`` to the error that stopped it (``on_error="skip"`` only).
    """

    method: str
    manifest_bytes: int
    diff: ManifestDiff
    per_file: dict[str, MethodOutcome] = field(default_factory=dict)
    #: The files only the server had, as one outcome: bytes sent, plus
    #: the reuse counters (DESIGN §17) of those served by content
    #: identity (renames) or as a delta against a similar sibling.
    added: MethodOutcome = field(
        default_factory=lambda: MethodOutcome(total_bytes=0)
    )
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    workers: int = 1
    per_file_seconds: dict[str, float] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    caches: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    #: Wire-latency accounting (always filled for the changed files):
    #: ``roundtrips_on_wire`` counts direction reversals on the (real or
    #: modelled) link — per-file sums for the sequential path, the shared
    #: multiplexed channel's count for the pipelined path — and
    #: ``link_wall_clock_s`` the modelled wall clock those bytes and
    #: reversals cost on the configured :class:`~repro.net.LinkModel`.
    #: ``waves`` counts the pipelined path's shared batches, one per
    #: direction turn, so it equals that path's ``roundtrips_on_wire``.
    pipelined: bool = False
    waves: int = 0
    mux_overhead_bytes: int = 0
    roundtrips_on_wire: int = 0
    link_wall_clock_s: float = 0.0

    def __getattr__(self, name: str):
        # Only reached for names that are not fields or properties.
        if name in _OUTCOME_FIELDS:
            return getattr(self.totals, name)
        caches = self.__dict__.get("caches", {})
        if name in caches:
            return caches[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def totals(self) -> MethodOutcome:
        """Every file's outcome merged: the changed files and the added."""
        return sum(self.per_file.values(), self.added)

    @property
    def added_bytes(self) -> int:
        return self.added.total_bytes

    @property
    def changed_transfer_bytes(self) -> int:
        return sum(outcome.total_bytes for outcome in self.per_file.values())

    @property
    def total_bytes(self) -> int:
        return self.manifest_bytes + self.changed_transfer_bytes + self.added_bytes

    @property
    def files_changed(self) -> int:
        return len(self.diff.changed)

    @property
    def files_unchanged(self) -> int:
        return len(self.diff.unchanged)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def files_fallback(self) -> int:
        return len(self.fallbacks)

    @property
    def files_failed(self) -> int:
        return len(self.failed)

    def counters(self) -> dict[str, object]:
        """Every scalar the report holds, by attribute name.

        Its scalar fields and properties, the cache counters, and the
        merged per-file counters that form a column of their own
        (``column`` in :class:`~repro.syncmethod.MethodOutcome`).
        """
        names = [spec.name for spec in fields(self)] + [
            name
            for name, value in vars(type(self)).items()
            if isinstance(value, property) and name != "totals"
        ]
        counters = {}
        for name in names:
            value = getattr(self, name)
            if isinstance(value, (bool, int, float, str)):
                counters[name] = value
        counters.update(self.caches)
        totals = self.totals
        for spec in fields(totals):
            if spec.metadata["column"]:
                counters[spec.name] = getattr(totals, spec.name)
        return counters

    def summary(self) -> dict[str, int]:
        return {
            "manifest": self.manifest_bytes,
            "changed": self.changed_transfer_bytes,
            "added": self.added_bytes,
            "total": self.total_bytes,
        }


_OUTCOME_FIELDS = frozenset(spec.name for spec in fields(MethodOutcome))


def _transfer_added(
    report: CollectionReport,
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    client_manifest: Manifest,
    sibling_refs: bool,
) -> None:
    """Transfer the files the client lacks entirely, after the changed ones.

    Default: compressed full transfer, exactly the pre-reuse behaviour.
    With ``sibling_refs`` each added file is first matched by content
    identity against the client's manifest (the client already holds
    these bytes under another name — a rename, zero wire bytes beyond
    the manifest).  Otherwise the server looks for the most similar file
    both sides hold by now — the unchanged files plus every changed file
    delivered in this update, in the server's version — by min-hash
    resemblance, and sends the cheaper of a delta against it and the full
    transfer.  The choice is charged: one uvarint per such file, ``0``
    for a full transfer, ``i + 1`` for a delta against the ``i``-th of
    the sorted shared names (omitted when nothing is shared, as there is
    no choice to name).
    """
    account = report.added
    by_fingerprint: dict[bytes, str] = {}
    shared: list[str] = []
    index = None
    if sibling_refs:
        # Earliest name wins per content (sorted = deterministic).
        for name in sorted(client_files, reverse=True):
            by_fingerprint[client_manifest.entries[name]] = name
        shared = sorted(
            name
            for name in report.diff.unchanged + report.diff.changed
            if name not in report.failed
        )
    if shared:
        from repro.reuse.similarity import SimilarityIndex

        index = SimilarityIndex()
        for name in shared:
            index.add(name, server_files[name])
    for name in report.diff.added:
        new = server_files[name]
        payload = zlib.compress(new, 9)
        if by_fingerprint:
            from repro.hashing.strong import file_fingerprint

            twin = by_fingerprint.get(file_fingerprint(new))
            if twin is not None:
                # Rename: content-identical bytes already on the client.
                account.dedup_hits += 1
                account.bytes_saved_vs_self_ref += len(payload)
                report.reconstructed[name] = client_files[twin]
                continue
        if index is not None:
            candidate = index.best_reference(new)
            if candidate is not None:
                from repro.delta.encoder import zdelta_decode, zdelta_encode
                from repro.io.varint import uvarint_size

                sibling_name, _resemblance = candidate
                delta = zdelta_encode(server_files[sibling_name], new)
                choice = bisect_left(shared, sibling_name) + 1
                cost = uvarint_size(choice) + len(delta)
                if cost < len(payload) + 1:  # + the uvarint 0 of a full one
                    account.total_bytes += cost
                    account.sibling_refs_used += 1
                    account.bytes_saved_vs_self_ref += len(payload) - cost
                    report.reconstructed[name] = zdelta_decode(
                        report.reconstructed[sibling_name], delta
                    )
                    continue
            account.total_bytes += 1  # the uvarint 0: sent in full
        account.total_bytes += len(payload)
        report.reconstructed[name] = zlib.decompress(payload)


def sync_collection(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    method: SyncMethod,
    change_detection: str = "manifest",
    workers: int | None = 1,
    on_error: str = "raise",
    link=None,
    store=None,
    pipeline: bool = False,
    window: int = 8,
    sibling_refs: bool = False,
) -> CollectionReport:
    """Update ``client_files`` to ``server_files`` using ``method``.

    Change detection is charged first — either the full fingerprint
    manifest (``"manifest"``, the paper's approach) or Merkle-trie
    reconciliation (``"reconcile"``, cost proportional to the number of
    changes).  Unchanged files cost nothing further; files only on the
    server are sent compressed; changed files go through the per-file
    method.  The reconstructed collection is checked byte-for-byte.

    ``workers`` fans the changed files out over a process pool; results
    are reassembled in manifest order so the report's byte accounting is
    identical to the serial run.
    ``workers=None`` uses one process per CPU.

    ``on_error`` controls per-file error isolation when a file cannot be
    synchronised:

    * ``"raise"`` (default) — propagate the error, aborting the update;
    * ``"skip"`` — keep the client's copy, record the error in
      ``report.failed``;
    * ``"fallback"`` — rescue the file with a reliable compressed full
      transfer, charged to its outcome and recorded in
      ``report.fallbacks``; the update never raises.

    Resilience (DESIGN §9, §10, §14): pass a
    :class:`~repro.resilience.SyncSupervisor` as ``method``; it owns the
    fault plan, retry policy, checkpoints, breakers, deadlines and its
    own ``link``, which prices the run's ``link_wall_clock_s`` too unless
    ``link`` is given here.  A supervisor that
    :attr:`~repro.resilience.SyncSupervisor.degrades_gracefully` has the
    files its breakers or deadlines refuse recorded in ``report.failed``
    (keeping the client copy) even under ``on_error="raise"``; one that
    :attr:`~repro.resilience.SyncSupervisor.shares_run_budget` runs
    serially, so the budget is charged deterministically.

    ``store`` (a :class:`~repro.collection.store.CollectionStore` or a
    directory path) materialises the reconstructed collection on disk,
    every file written atomically — a crash mid-update can orphan
    temporaries but never tear a visible file.

    Pipelined scheduling (DESIGN §16): ``pipeline=True`` prices the
    link as if the changed files' protocol rounds — up to ``window`` in
    flight — shared one multiplexed channel, so the link's round-trip
    latency is paid per shared batch instead of per file per round
    (:class:`~repro.collection.pipeline.CollectionScheduler`); a
    ``window`` of at least the number of changed files carries them all
    in lockstep.  The files run exactly as without it, and the shared
    link is replayed from their recorded transcripts, so per-file
    transcripts, byte accounting and round checkpoints are the
    sequential run's; only ``roundtrips_on_wire`` and
    ``link_wall_clock_s`` collapse.

    Cross-file reuse (DESIGN §17): ``sibling_refs`` serves *added* files
    (no previous version on the client) by content identity when the
    client already holds the same bytes under another name (a rename —
    counted in ``report.dedup_hits``) or as a delta against the most
    similar file both sides hold once the changed files are delivered,
    clearing :data:`~repro.reuse.similarity.DEFAULT_RESEMBLANCE_THRESHOLD`
    (min-hash estimate, counted in ``report.sibling_refs_used``); the
    compressed full transfer remains the fallback, and the cheaper of
    delta and full always wins.  Naming the reference costs one uvarint
    per added file that is not a rename.  It defaults to off, leaving
    reports byte-identical to a run without it.
    """
    if on_error not in ("raise", "skip", "fallback"):
        raise ValueError(
            f"on_error must be 'raise', 'skip' or 'fallback', "
            f"got {on_error!r}"
        )
    graceful = getattr(method, "degrades_gracefully", False)
    if getattr(method, "shares_run_budget", False):
        workers = 1

    from repro.resilience import SyncSupervisor

    if link is None and isinstance(method, SyncSupervisor):
        link = method.link  # one link model prices the whole report

    client_manifest = Manifest.of_collection(client_files)
    server_manifest = Manifest.of_collection(server_files)
    if change_detection == "manifest":
        diff = diff_manifests(client_manifest, server_manifest)
        detection_bytes = server_manifest.wire_bytes()
    elif change_detection == "reconcile":
        from repro.collection.reconcile import reconcile_manifests

        diff, channel = reconcile_manifests(client_manifest, server_manifest)
        detection_bytes = channel.stats.total_bytes
    else:
        raise ValueError(
            f"change_detection must be 'manifest' or 'reconcile', "
            f"got {change_detection!r}"
        )

    report = CollectionReport(
        method=method.name,
        manifest_bytes=detection_bytes,
        diff=diff,
    )

    for name in diff.unchanged:
        report.reconstructed[name] = client_files[name]

    tasks = [
        FileTask(name, client_files[name], server_files[name])
        for name in diff.changed
    ]
    # Breakers/deadlines promise graceful degradation, so their typed
    # refusals must be captured (and skipped below) even when other
    # errors still abort the run.
    capture_errors = (on_error != "raise") or graceful
    if pipeline:
        from repro.collection.pipeline import CollectionScheduler

        # The executor's run, with the shared link replayed on top.
        batch = CollectionScheduler(
            method, window=window, link=link, workers=workers
        ).run(tasks, capture_errors=capture_errors)
        report.pipelined = True
        report.waves = batch.waves
        report.mux_overhead_bytes = batch.mux_overhead_bytes
        report.roundtrips_on_wire = batch.roundtrips_on_wire
        report.link_wall_clock_s = batch.link_wall_clock_s
    else:
        batch = SyncExecutor(workers=workers).run(
            method, tasks, capture_errors=capture_errors
        )
    report.workers = batch.workers_used
    report.caches = batch.caches
    for result in batch.files:
        name = result.name
        report.per_file_seconds[name] = result.elapsed_seconds
        report.cpu_seconds += result.cpu_seconds
        failed = result.error is not None or not result.outcome.correct
        skip_this = failed and on_error == "skip"
        if failed and on_error == "raise" and graceful:
            if result.error is not None and result.error.startswith(
                ("DeadlineExceededError", "CircuitOpenError")
            ):
                skip_this = True  # graceful degradation, not an abort
            elif result.error is not None:
                from repro.exceptions import SyncFailedError

                raise SyncFailedError(f"{name}: {result.error}")
        if skip_this:
            report.failed[name] = result.error or "IntegrityError: bad bytes"
            report.per_file[name] = result.outcome
            report.reconstructed[name] = client_files[name]
            if result.outcome.retries:
                report.retries[name] = result.outcome.retries
            continue
        if failed and on_error == "fallback":
            # Out-of-band rescue: a reliable compressed full transfer
            # that keeps the doomed attempts' resilience accounting.
            # Everything they sent is charged as retransmission on
            # top of the rescue payload.
            payload_bytes = len(zlib.compress(server_files[name], 9))
            report.per_file[name] = replace(
                result.outcome,
                total_bytes=payload_bytes,
                client_to_server=0,
                server_to_client=payload_bytes,
                breakdown={"s2c/rescue": payload_bytes},
                correct=True,
                fallback_method="rescue-full",
                retransmitted_bytes=(
                    result.outcome.retransmitted_bytes
                    + result.outcome.total_bytes
                ),
                roundtrips=0,
                sibling_refs_used=0,
                bytes_saved_vs_self_ref=0,
            )
            report.fallbacks[name] = "rescue-full"
            if result.outcome.retries:
                report.retries[name] = result.outcome.retries
            report.reconstructed[name] = server_files[name]
            continue
        report.per_file[name] = result.outcome
        # The bytes the client rebuilt, where the lane reports them; a
        # method without a session only vouches with a correct outcome.
        report.reconstructed[name] = (
            server_files[name]
            if result.reconstructed is None
            else result.reconstructed
        )
        if result.outcome.retries:
            report.retries[name] = result.outcome.retries
        if result.outcome.fallback_method:
            report.fallbacks[name] = result.outcome.fallback_method
        if not result.outcome.correct:
            raise IntegrityError(f"method {method.name} failed on {name}")

    outcomes = list(report.per_file.values())
    if outcomes and not pipeline:
        # Wire-latency accounting for the sequential path: each
        # file's session pays its own direction reversals on the
        # link, so the collection's cost is the per-file sum — the
        # figure the pipelined replay collapses.
        from repro.net.channel import LinkModel

        report.roundtrips_on_wire = sum(o.roundtrips for o in outcomes)
        report.link_wall_clock_s = (link or LinkModel()).transfer_seconds(
            [o.client_to_server for o in outcomes],
            [o.server_to_client for o in outcomes],
            [o.roundtrips for o in outcomes],
        )

    if diff.added:
        # After the changed files, so a sibling reference may name
        # any file both sides hold by then.
        _transfer_added(
            report,
            client_files,
            server_files,
            client_manifest,
            sibling_refs,
        )

    for name, data in server_files.items():
        if name in report.failed:
            continue  # explicitly skipped; the client keeps its copy
        if report.reconstructed.get(name) != data:
            raise IntegrityError(
                f"collection reconstruction differs at {name}"
            )
    if store is not None:
        from repro.collection.store import CollectionStore

        if not isinstance(store, CollectionStore):
            store = CollectionStore(store)
        store.write_collection(report.reconstructed)
    return report
