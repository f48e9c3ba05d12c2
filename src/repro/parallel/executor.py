"""Parallel fan-out of per-file synchronizations over a process pool.

The paper's deployment scenario is a *collection*: thousands of files
synchronized in one pass.  Each per-file run is CPU-bound (numpy hash
scans, delta coding) and completely independent once change detection has
split the manifest, so the collection phase parallelises embarrassingly.

:class:`SyncExecutor` fans ``method.sync_file(old, new)`` calls out over a
``concurrent.futures.ProcessPoolExecutor``:

* **Deterministic results** — outcomes are reassembled in submission
  order, so a parallel collection report is byte-identical to the serial
  one regardless of worker completion order or dispatch substrate.
* **Zero-copy dispatch** — by default payload bytes travel through a
  :class:`~repro.parallel.arena.CollectionArena` shared-memory segment:
  task pickles shrink to ``(name, old_span, new_span)`` triples and
  workers read payloads as zero-copy ``memoryview`` windows.  Where
  shared memory is unavailable the executor transparently ships full
  payloads through the classic pickle path instead (identical results).
* **Size-aware scheduling** — chunks are submitted in descending
  payload-byte order (longest-processing-time heuristic), so a cluster
  of large files at the end of the manifest cannot become the straggler
  that idles every other worker.
* **Warm workers** — a pool initializer attaches the arena once per
  worker and pre-sizes the hash-index cache for the batch, instead of
  re-attaching and re-growing per chunk.
* **Chunked dispatch** — many small files are shipped per task to
  amortise queue overhead; chunk size defaults to
  ``ceil(len(tasks) / (workers * 4))`` for load balance.
* **Serial fallback** — ``workers=1``, a single task, an unpicklable
  method, or a pool that cannot be created (restricted environments) all
  degrade to the plain in-process loop with identical results.
* **Crash isolation** — a chunk whose worker dies (or whose future
  raises) is retried serially in the parent process instead of aborting
  the whole run; ``BatchResult.chunk_retries`` counts how often.  The
  retry always uses the parent's own payload bytes, so a torn arena can
  never corrupt results.
* **Error capture** — with ``capture_errors=True`` a per-file
  :class:`~repro.exceptions.ReproError` becomes a ``FileResult`` with
  ``error`` set rather than an exception, so one poisoned file cannot
  take down a collection update (per-file error isolation).

Workers report per-file wall-clock and CPU time plus their hash-index
cache hit/miss deltas, so speedups show up in benchmark rows rather than
anecdotes.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import weakref
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.syncmethod import MethodOutcome, SyncMethod


@dataclass(frozen=True)
class FileTask:
    """One per-file synchronization job."""

    name: str
    old: bytes
    new: bytes

    @property
    def total_bytes(self) -> int:
        return len(self.old) + len(self.new)


@dataclass
class FileResult:
    """Outcome plus compute cost of one per-file synchronization.

    ``error`` is ``None`` on success; under ``capture_errors`` it holds
    ``"ExceptionType: message"`` for a file whose sync failed, and the
    outcome is an empty placeholder with ``correct=False``.
    """

    name: str
    outcome: MethodOutcome
    elapsed_seconds: float
    cpu_seconds: float
    error: str | None = None


@dataclass
class BatchResult:
    """All per-file results of one executor run, in submission order.

    ``caches`` holds the run's cache hit/miss deltas, keyed as
    :func:`cache_counters` keys them.
    """

    files: list[FileResult] = field(default_factory=list)
    workers_used: int = 1
    caches: dict[str, int] = field(default_factory=dict)
    chunk_retries: int = 0
    arena_used: bool = False
    arena_bytes: int = 0

    @property
    def cpu_seconds(self) -> float:
        return sum(result.cpu_seconds for result in self.files)


def cache_counters(since: dict[str, int] | None = None) -> dict[str, int]:
    """This process's cache hit/miss counters, minus ``since`` if given.

    Keys are ``{cache}_hits``/``{cache}_misses`` for the hash-index
    (``cache``), reference-index (``ref_cache``) and delta-memo
    (``delta_memo``) caches — the names the collection report and the
    benchmark row show them under.  Snapshot before a run and pass the
    snapshot back afterwards to get the run's own work.
    """
    from repro.parallel.cache import default_cache, default_reference_cache
    from repro.reuse.memo import default_delta_memo

    counters = {}
    for prefix, cache in (
        ("cache", default_cache()),
        ("ref_cache", default_reference_cache()),
        ("delta_memo", default_delta_memo()),
    ):
        counters[f"{prefix}_hits"] = cache.stats.hits
        counters[f"{prefix}_misses"] = cache.stats.misses
    if since is not None:
        for key in counters:
            counters[key] -= since[key]
    return counters


def _sync_one(
    method: SyncMethod, task: FileTask, capture_errors: bool
) -> FileResult:
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        # Route the entry's name through so wrappers with durable
        # per-file state (checkpoint journals) can key it; plain methods
        # ignore it via the SyncMethod default.
        outcome = method.sync_named_file(task.name, task.old, task.new)
        error = None
    except ReproError as exc:
        if not capture_errors:
            raise
        # Typed failures from the resilience layer carry the doomed
        # attempts' accounting (retransmission, backoff, salvaged rounds)
        # — surface it instead of an empty placeholder so collection
        # counters still see what the failure cost.
        partial = getattr(exc, "partial", None)
        outcome = (
            partial
            if partial is not None
            else MethodOutcome(total_bytes=0, correct=False)
        )
        error = f"{type(exc).__name__}: {exc}"
    return FileResult(
        task.name,
        outcome,
        time.perf_counter() - started,
        time.process_time() - cpu_started,
        error=error,
    )


#: Worker-process arena mapping, installed once by :func:`_worker_init`.
_worker_arena = None


def _worker_init(
    arena_name: str | None,
    cache_entries: int | None,
    memo_enabled: bool | None = None,
) -> None:
    """Pool initializer: attach the arena once, pre-size the caches.

    Runs once per worker process instead of once per chunk, so the warm
    state (arena mapping, hash-index and reference-index cache capacity,
    delta-memo switch) persists across every chunk the worker handles.
    ``memo_enabled`` re-asserts the parent's resolved delta-memo switch
    so spawn-based pools match fork-based ones.
    """
    global _worker_arena
    if arena_name is not None:
        from repro.parallel.arena import CollectionArena

        _worker_arena = CollectionArena.attach(arena_name)
    if cache_entries is not None:
        from repro.parallel.cache import default_cache, default_reference_cache

        default_cache().ensure_capacity(cache_entries)
        default_reference_cache().ensure_capacity(cache_entries)
        from repro.reuse.memo import default_delta_memo

        default_delta_memo().ensure_capacity(cache_entries)
    if memo_enabled is not None:
        from repro.reuse.memo import set_delta_memo_enabled

        set_delta_memo_enabled(memo_enabled)


def _run_chunk(
    method: SyncMethod,
    chunk: list[tuple[int, FileTask]],
    capture_errors: bool = False,
) -> tuple[list[tuple[int, FileResult]], dict[str, int]]:
    """Worker entry point: run one chunk, report its cache counter deltas."""
    before = cache_counters()
    rows = [
        (index, _sync_one(method, task, capture_errors))
        for index, task in chunk
    ]
    return rows, cache_counters(since=before)


def _run_chunk_spans(
    method: SyncMethod,
    chunk,
    capture_errors: bool = False,
) -> tuple[list[tuple[int, FileResult]], dict[str, int]]:
    """Arena worker entry point: spans in, payloads read zero-copy.

    Each ``(index, SpanTask)`` is materialised as a :class:`FileTask`
    whose payloads are ``memoryview`` windows onto the worker's arena
    mapping — no payload bytes ever cross the pipe.
    """
    arena = _worker_arena
    if arena is None:  # initializer did not run: broken pool setup
        raise RuntimeError("arena worker started without an arena mapping")
    view_chunk = []
    for index, span_task in chunk:
        old, new = arena.task_views(span_task)
        view_chunk.append((index, FileTask(span_task.name, old, new)))
    return _run_chunk(method, view_chunk, capture_errors)


_pickle_probe_cache: "weakref.WeakKeyDictionary[SyncMethod, bool]" = (
    weakref.WeakKeyDictionary()
)


def _is_picklable(method: SyncMethod) -> bool:
    """Whether ``method`` can cross a process boundary.

    Honours an explicit :attr:`SyncMethod.supports_pickle` declaration,
    otherwise probes with ``pickle.dumps`` once per method *instance*
    (memoized) instead of on every ``run()`` call.
    """
    declared = getattr(method, "supports_pickle", None)
    if declared is not None:
        return bool(declared)
    try:
        return _pickle_probe_cache[method]
    except (KeyError, TypeError):
        pass
    try:
        pickle.dumps(method)
        result = True
    except Exception:
        result = False
    try:
        _pickle_probe_cache[method] = result
    except TypeError:  # unhashable/unweakrefable method: probe each time
        pass
    return result


def _lpt_order(chunks) -> list[int]:
    """Chunk submission order: descending payload bytes, stable.

    The longest-processing-time heuristic — big chunks enter the pool
    first so they overlap everything else instead of starting last and
    stretching the tail.  Reassembly is by task index, so the order
    never affects results.
    """
    sizes = [
        sum(task.total_bytes for _index, task in chunk) for chunk in chunks
    ]
    return sorted(range(len(chunks)), key=lambda c: (-sizes[c], c))


class SyncExecutor:
    """Runs per-file sync jobs serially or over a process pool.

    Parameters
    ----------
    workers:
        Process count.  ``None`` resolves to ``os.cpu_count()``; ``1``
        selects the serial in-process path.
    chunk_size:
        Files per pool task.  ``None`` picks
        ``ceil(len(tasks) / (workers * 4))`` so each worker sees a few
        chunks for load balance without per-file dispatch overhead.
    use_arena:
        Dispatch substrate for the parallel path.  ``None`` (default)
        uses the zero-copy shared-memory arena whenever the platform
        supports it; ``True`` insists on trying it; ``False`` always
        ships payloads through the pickle path.  Results are identical
        either way.
    """

    def __init__(
        self,
        workers: int | None = 1,
        chunk_size: int | None = None,
        use_arena: bool | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.use_arena = use_arena

    # ------------------------------------------------------------------
    def run(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
    ) -> BatchResult:
        """Synchronise every task; results come back in input order.

        With ``capture_errors`` a per-file :class:`ReproError` is
        reported in ``FileResult.error`` instead of raised, isolating
        failures to the file that caused them.
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1 or not _is_picklable(method):
            return self._run_serial(method, tasks, capture_errors)
        try:
            return self._run_parallel(method, tasks, capture_errors)
        except Exception:
            # Pool unavailable (sandboxed semaphores, fork limits):
            # the serial path recomputes deterministically.
            return self._run_serial(method, tasks, capture_errors)

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
    ) -> BatchResult:
        rows, caches = _run_chunk(method, list(enumerate(tasks)), capture_errors)
        return BatchResult(
            files=[file_result for _index, file_result in rows],
            caches=caches,
        )

    def _acquire_arena(self, tasks: list[FileTask]):
        """The (arena, span_tasks) pair for this batch, or (None, None).

        Any shared-memory failure — probe, creation, packing — lands on
        the pickle path rather than surfacing to the caller.
        """
        from repro.parallel.arena import arena_available, arena_pool

        if self.use_arena is False:
            return None, None
        if self.use_arena is None and not arena_available():
            return None, None
        arena = None
        try:
            arena = arena_pool().acquire(
                sum(task.total_bytes for task in tasks)
            )
            return arena, arena.pack(tasks)
        except Exception:
            if arena is not None:
                arena_pool().release(arena)
            return None, None

    def _run_parallel(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
    ) -> BatchResult:
        from concurrent.futures import ProcessPoolExecutor

        indexed = list(enumerate(tasks))
        chunk_size = self.chunk_size or max(
            1, math.ceil(len(tasks) / (self.workers * 4))
        )
        chunks = [
            indexed[start : start + chunk_size]
            for start in range(0, len(indexed), chunk_size)
        ]
        workers_used = min(self.workers, len(chunks))
        # Workers see roughly every changed file; cap the cache so one
        # batch cannot evict-thrash its own entries mid-run.
        cache_entries = 4 * len(tasks)

        arena, span_tasks = self._acquire_arena(tasks)
        result = BatchResult(workers_used=workers_used)
        try:
            if arena is not None:
                entry, arena_name = _run_chunk_spans, arena.name
                payload_chunks = [
                    [(index, span_tasks[index]) for index, _task in chunk]
                    for chunk in chunks
                ]
                result.arena_used = True
                result.arena_bytes = arena.used_bytes
            else:
                entry, arena_name = _run_chunk, None
                payload_chunks = chunks

            gathered = []
            failed_chunks: list[list[tuple[int, FileTask]]] = []
            from repro.reuse.memo import delta_memo_enabled

            with ProcessPoolExecutor(
                max_workers=workers_used,
                initializer=_worker_init,
                initargs=(arena_name, cache_entries, delta_memo_enabled()),
            ) as pool:
                order = _lpt_order(chunks)
                futures = {
                    position: pool.submit(
                        entry, method, payload_chunks[position], capture_errors
                    )
                    for position in order
                }
                for position in order:
                    try:
                        gathered.append(futures[position].result())
                    except Exception:
                        # A crashed worker (or broken pool) loses its
                        # chunk — and, once the pool is broken, every
                        # chunk after it.  Those files are retried
                        # serially below (always from the parent's own
                        # payload bytes) instead of aborting the run.
                        failed_chunks.append(chunks[position])
        finally:
            if arena is not None:
                from repro.parallel.arena import arena_pool

                arena_pool().release(arena)

        for chunk in failed_chunks:
            gathered.append(_run_chunk(method, chunk, capture_errors))
            result.chunk_retries += 1

        rows: list[tuple[int, FileResult]] = []
        for chunk_rows, caches in gathered:
            rows.extend(chunk_rows)
            for key, value in caches.items():
                result.caches[key] = result.caches.get(key, 0) + value
        rows.sort(key=lambda row: row[0])
        result.files = [file_result for _index, file_result in rows]
        return result
