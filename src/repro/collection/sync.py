"""Synchronise an entire replicated collection with any per-file method."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields, replace

from repro.syncmethod import MethodOutcome, SyncMethod
from repro.collection.manifest import Manifest, ManifestDiff, diff_manifests
from repro.exceptions import IntegrityError
from repro.parallel.executor import FileTask, SyncExecutor, cache_counters


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
    arena_used: bool = False
    arena_bytes: int = 0
    retries: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    #: Wire-latency accounting (always filled for the changed files):
    #: ``roundtrips_on_wire`` counts direction reversals on the (real or
    #: modelled) link — per-file sums for the sequential path, the shared
    #: multiplexed channel's count for the pipelined path — and
    #: ``link_wall_clock_s`` the modelled wall clock those bytes and
    #: reversals cost on the configured :class:`~repro.net.LinkModel`.
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


def sync_collection_batched(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    config=None,
    verify: bool = True,
) -> CollectionReport:
    """Like :func:`sync_collection` with our protocol, but every changed
    file shares the same roundtrips (``repro.core.synchronize_batch``).

    This is the deployment mode the paper assumes for large collections:
    recursive splitting costs latency once per *collection*, not once per
    file.
    """
    from repro.core.batch import synchronize_batch

    client_manifest = Manifest.of_collection(client_files)
    server_manifest = Manifest.of_collection(server_files)
    diff = diff_manifests(client_manifest, server_manifest)

    report = CollectionReport(
        method="ours-batched",
        manifest_bytes=server_manifest.wire_bytes(),
        diff=diff,
        caches=dict.fromkeys(cache_counters(), 0),  # not measured here
    )
    for name in diff.unchanged:
        report.reconstructed[name] = client_files[name]
    for name in diff.added:
        payload = zlib.compress(server_files[name], 9)
        report.added.total_bytes += len(payload)
        report.reconstructed[name] = zlib.decompress(payload)

    if diff.changed:
        batch = synchronize_batch(
            {name: client_files[name] for name in diff.changed},
            {name: server_files[name] for name in diff.changed},
            config,
        )
        report.reconstructed.update(batch.reconstructed)
        # Attribute the shared cost to one aggregate outcome entry.
        report.per_file["<batch>"] = MethodOutcome(
            total_bytes=batch.total_bytes,
            client_to_server=batch.stats.client_to_server_bytes,
            server_to_client=batch.stats.server_to_client_bytes,
            breakdown=dict(batch.stats.breakdown()),
        )

    if verify:
        for name, data in server_files.items():
            if report.reconstructed.get(name) != data:
                raise IntegrityError(
                    f"batched reconstruction differs at {name}"
                )
    return report


def _transfer_added(
    report: CollectionReport,
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    added,
    client_manifest: Manifest,
    sibling_refs: bool,
    resemblance_threshold: float,
) -> None:
    """Transfer the files the client lacks entirely.

    Default: compressed full transfer, exactly the pre-reuse behaviour.
    With ``sibling_refs`` each added file is first matched by content
    identity (the client already holds these bytes under another name —
    a rename, zero wire bytes beyond the manifest) and then against the
    most similar client file by min-hash resemblance (delta-coded when
    that beats the full transfer).  Every decision takes the cheaper
    payload, so the option never costs bytes.
    """
    account = report.added
    index = None
    by_fingerprint: dict[bytes, str] = {}
    if sibling_refs and client_files:
        from repro.reuse.similarity import SimilarityIndex

        # Earliest name wins per content (sorted = deterministic).
        for name in sorted(client_files, reverse=True):
            by_fingerprint[client_manifest.entries[name]] = name
        index = SimilarityIndex()
        for name in sorted(client_files):
            index.add(name, client_files[name])
    for name in added:
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
            candidate = index.best_reference(
                new, threshold=resemblance_threshold
            )
            if candidate is not None:
                from repro.delta.encoder import zdelta_decode, zdelta_encode

                sibling_name, _resemblance = candidate
                sibling = client_files[sibling_name]
                delta = zdelta_encode(sibling, new)
                if len(delta) < len(payload):
                    account.total_bytes += len(delta)
                    account.sibling_refs_used += 1
                    account.bytes_saved_vs_self_ref += len(payload) - len(delta)
                    report.reconstructed[name] = zdelta_decode(sibling, delta)
                    continue
        account.total_bytes += len(payload)
        report.reconstructed[name] = zlib.decompress(payload)


def sync_collection(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    method: SyncMethod,
    verify: bool = True,
    change_detection: str = "manifest",
    workers: int | None = 1,
    use_arena: bool | None = None,
    executor: SyncExecutor | None = None,
    on_error: str = "raise",
    fault_plan=None,
    retry_policy=None,
    link=None,
    checkpoint_dir=None,
    resume: bool = False,
    checkpoints=None,
    store=None,
    adaptive_retry=False,
    deadline_s: float | None = None,
    run_deadline_s: float | None = None,
    breaker_threshold=None,
    pipeline: bool = False,
    window: int = 8,
    delta_memo: bool | None = None,
    sibling_refs: bool = False,
    resemblance_threshold: float = 0.5,
) -> CollectionReport:
    """Update ``client_files`` to ``server_files`` using ``method``.

    Change detection is charged first — either the full fingerprint
    manifest (``"manifest"``, the paper's approach) or Merkle-trie
    reconciliation (``"reconcile"``, cost proportional to the number of
    changes).  Unchanged files cost nothing further; files only on the
    server are sent compressed; changed files go through the per-file
    method.  With ``verify`` (default) the reconstructed collection is
    checked byte-for-byte.

    ``workers`` (or a preconfigured ``executor``) fans the changed files
    out over a process pool; results are reassembled in manifest order so
    the report's byte accounting is identical to the serial run.
    ``workers=None`` uses one process per CPU.  ``use_arena`` picks the
    dispatch substrate for the pool: ``None`` (default) ships payloads
    through a zero-copy shared-memory arena when the platform supports
    it, ``False`` forces the classic pickle path, ``True`` insists on
    trying the arena.  Reports are byte-identical either way.

    Resilience: passing a ``fault_plan``
    (:class:`~repro.net.faults.FaultPlan`) and/or a ``retry_policy``
    (:class:`~repro.resilience.RetryPolicy`) wraps ``method`` in a
    :class:`~repro.resilience.SyncSupervisor` that retries and degrades
    down a fallback ladder per file.  ``on_error`` controls per-file
    error isolation when a file still cannot be synchronised:

    * ``"raise"`` (default) — propagate the error, aborting the update;
    * ``"skip"`` — keep the client's copy, record the error in
      ``report.failed``;
    * ``"fallback"`` — rescue the file with a reliable compressed full
      transfer, charged to its outcome and recorded in
      ``report.fallbacks``; the update never raises.

    Resumable sessions: ``checkpoint_dir`` (or a preconfigured
    ``checkpoints`` :class:`~repro.resilience.CheckpointStore`) makes
    every checkpoint-capable file session journal its round boundaries
    there, one file per entry; retries resume from the last completed
    round.  ``resume=True`` additionally honours journals left by a
    *previous* (crashed) run — it requires a durable checkpoint location
    and raises :class:`~repro.exceptions.ResumeRefusedError` without one.
    All three parameters default to off, leaving behaviour and byte
    accounting identical to a run without them.

    ``store`` (a :class:`~repro.collection.store.CollectionStore` or a
    directory path) materialises the reconstructed collection on disk,
    every file written atomically — a crash mid-update can orphan
    temporaries but never tear a visible file.

    Adaptive resilience (DESIGN §14): ``adaptive_retry`` (``True`` or an
    :class:`~repro.resilience.AdaptiveRetryPolicy`) replaces the static
    backoff with AIMD scaling, seeded jitter and failure-signature
    ladder routing; ``breaker_threshold`` (an int, or a preconfigured
    :class:`~repro.resilience.BreakerBoard`) gives every file a circuit
    breaker; ``deadline_s`` bounds the simulated seconds spent per file
    and ``run_deadline_s`` across the whole run (run deadlines force
    serial execution so the shared budget is charged deterministically).
    With breakers or deadlines configured the run *degrades gracefully*:
    a file refused by its breaker or out of budget is recorded in
    ``report.failed`` (keeping the client copy) even under
    ``on_error="raise"``, which then raises
    :class:`~repro.exceptions.SyncFailedError` only for other errors.
    All four default to off, leaving behaviour byte-identical to a run
    without them.

    Pipelined scheduling (DESIGN §16): ``pipeline=True`` interleaves the
    changed files' protocol rounds — up to ``window`` in flight — over
    one multiplexed channel so the link's round-trip latency is paid per
    *wave* instead of per file per round
    (:class:`~repro.collection.pipeline.CollectionScheduler`).  Per-file
    transcripts, byte accounting and round checkpoints stay bit-identical
    to the sequential run; only ``roundtrips_on_wire`` and
    ``link_wall_clock_s`` collapse.  Requires a method with a step-wise
    session (``supports_pipeline``), forces serial in-process compute,
    and is incompatible with fault injection, retries, breakers,
    deadlines and ``on_error`` isolation (checkpoints/resume compose
    fine).

    Cross-file reuse (DESIGN §17): ``delta_memo`` scopes the process-wide
    delta-memo switch for this update — ``True`` memoizes instruction
    lists and encoded payloads by content pair (byte-identical, wall-clock
    only), ``False`` forces it off, ``None`` (default) defers to
    ``REPRO_DELTA_MEMO``.  ``sibling_refs`` serves *added* files (no
    previous version on the client) by content identity when the client
    already holds the same bytes under another name (a rename — counted
    in ``report.dedup_hits``) or as a delta against the most similar
    client file clearing ``resemblance_threshold`` (min-hash estimate,
    counted in ``report.sibling_refs_used``); the compressed full
    transfer remains the fallback, and the cheaper of delta and full
    always wins, so enabling it never costs wire bytes.  Both knobs
    default to off, leaving reports byte-identical to a run without them.
    """
    if on_error not in ("raise", "skip", "fallback"):
        raise ValueError(
            f"on_error must be 'raise', 'skip' or 'fallback', "
            f"got {on_error!r}"
        )
    if pipeline:
        if not getattr(method, "supports_pipeline", False):
            raise ValueError(
                f"method {method.name} does not support pipelined "
                f"scheduling (no step-wise session)"
            )
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if (
            fault_plan is not None
            or retry_policy is not None
            or adaptive_retry
            or breaker_threshold is not None
            or deadline_s is not None
            or run_deadline_s is not None
        ):
            raise ValueError(
                "pipeline=True is incompatible with fault injection, "
                "retries, breakers and deadlines — run those sequentially"
            )
        if on_error != "raise":
            raise ValueError(
                "pipeline=True is incompatible with on_error isolation; "
                "use on_error='raise'"
            )
        if executor is not None:
            raise ValueError(
                "pipeline=True forces serial in-process execution; "
                "drop executor="
            )
    if checkpoints is None and checkpoint_dir is not None:
        from repro.resilience import CheckpointStore

        checkpoints = CheckpointStore(checkpoint_dir, resume=resume)
    if resume and (checkpoints is None or checkpoints.root is None):
        from repro.exceptions import ResumeRefusedError

        raise ResumeRefusedError(
            "resume=True needs a durable checkpoint location "
            "(checkpoint_dir or a CheckpointStore with a root)"
        )
    budget = None
    if run_deadline_s is not None:
        from repro.resilience import DeadlineBudget

        budget = DeadlineBudget(run_deadline_s)
        # The run-level budget is shared mutable state charged by every
        # file in sequence; pool workers each mutate their own pickled
        # copy, so a run deadline forces serial execution.
        workers = 1
        executor = None
    if adaptive_retry:
        from repro.resilience import AdaptiveRetryPolicy

        if isinstance(adaptive_retry, AdaptiveRetryPolicy):
            retry_policy = adaptive_retry
        elif not isinstance(retry_policy, AdaptiveRetryPolicy):
            # Mirror a given static schedule into the adaptive policy so
            # `adaptive_retry=True` composes with `retry_policy=...`.
            schedule_kwargs = {}
            if retry_policy is not None:
                schedule_kwargs = dict(
                    max_attempts=retry_policy.max_attempts,
                    base_backoff_s=retry_policy.base_backoff_s,
                    multiplier=retry_policy.multiplier,
                    max_backoff_s=retry_policy.max_backoff_s,
                )
            retry_policy = AdaptiveRetryPolicy(**schedule_kwargs)
    breakers = None
    if breaker_threshold is not None:
        from repro.resilience import BreakerBoard

        if isinstance(breaker_threshold, BreakerBoard):
            breakers = breaker_threshold
        else:
            breakers = BreakerBoard(
                failure_threshold=int(breaker_threshold)
            )
    graceful = (
        breakers is not None or deadline_s is not None or budget is not None
    )
    if (
        fault_plan is not None
        or retry_policy is not None
        or checkpoints is not None
        or graceful
    ) and not pipeline:  # the pipelined scheduler drives journals itself
        from repro.resilience import SyncSupervisor

        if not isinstance(method, SyncSupervisor):
            method = SyncSupervisor(
                method,
                retry=retry_policy,
                fault_plan=fault_plan,
                link=link,
                checkpoints=checkpoints,
                breakers=breakers,
                deadline_s=deadline_s,
                budget=budget,
            )

    from repro.reuse.memo import delta_memo_scope

    with delta_memo_scope(None if delta_memo is None else bool(delta_memo)):
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
        if diff.added:
            _transfer_added(
                report,
                client_files,
                server_files,
                diff.added,
                client_manifest,
                sibling_refs,
                resemblance_threshold,
            )

        if pipeline:
            from repro.collection.pipeline import CollectionScheduler

            scheduler = CollectionScheduler(
                method, window=window, link=link, checkpoints=checkpoints
            )
            before = cache_counters()
            run = scheduler.run(
                [
                    (name, client_files[name], server_files[name])
                    for name in diff.changed
                ]
            )
            report.caches = cache_counters(since=before)
            report.workers = 1
            report.pipelined = True
            report.waves = run.waves
            report.mux_overhead_bytes = run.mux_overhead_bytes
            report.roundtrips_on_wire = run.roundtrips_on_wire
            report.link_wall_clock_s = run.link_wall_clock_s
            for name in diff.changed:
                outcome = run.per_file[name]
                report.per_file[name] = outcome
                report.per_file_seconds[name] = run.per_file_seconds[name]
                report.cpu_seconds += run.per_file_seconds[name]
                report.reconstructed[name] = run.reconstructed[name]
                if verify and not outcome.correct:
                    raise IntegrityError(f"method {method.name} failed on {name}")
            return _finish(report, server_files, verify, store)

        if executor is None:
            executor = SyncExecutor(workers=workers, use_arena=use_arena)
        batch = executor.run(
            method,
            [
                FileTask(name, client_files[name], server_files[name])
                for name in diff.changed
            ],
            # Breakers/deadlines promise graceful degradation, so their typed
            # refusals must be captured (and skipped below) even when other
            # errors still abort the run.
            capture_errors=(on_error != "raise") or graceful,
        )
        report.workers = batch.workers_used
        report.caches = batch.caches
        report.arena_used = batch.arena_used
        report.arena_bytes = batch.arena_bytes
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
            report.reconstructed[name] = server_files[name]
            if result.outcome.retries:
                report.retries[name] = result.outcome.retries
            if result.outcome.fallback_method:
                report.fallbacks[name] = result.outcome.fallback_method
            if verify and not result.outcome.correct:
                raise IntegrityError(f"method {method.name} failed on {name}")

        # Wire-latency accounting for the sequential path: each file's
        # session pays its own direction reversals on the link, so the
        # collection's cost is the per-file sum — the figure the pipelined
        # scheduler collapses.
        from repro.net.channel import LinkModel

        outcomes = list(report.per_file.values())
        report.roundtrips_on_wire = sum(o.roundtrips for o in outcomes)
        if outcomes:
            report.link_wall_clock_s = (link or LinkModel()).transfer_seconds(
                [o.client_to_server for o in outcomes],
                [o.server_to_client for o in outcomes],
                [o.roundtrips for o in outcomes],
            )
        return _finish(report, server_files, verify, store)


def _finish(
    report: CollectionReport, server_files: dict[str, bytes], verify: bool, store
) -> CollectionReport:
    """Verify the reconstruction (skipped files excepted) and store it."""
    if verify:
        for name, data in server_files.items():
            if name in report.failed:
                continue  # explicitly skipped; the client keeps its copy
            if report.reconstructed.get(name) != data:
                raise IntegrityError(f"collection reconstruction differs at {name}")
    if store is not None:
        from repro.collection.store import CollectionStore

        if not isinstance(store, CollectionStore):
            store = CollectionStore(store)
        store.write_collection(report.reconstructed)
    return report
