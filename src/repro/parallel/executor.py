"""Parallel fan-out of per-file synchronizations over a process pool.

The paper's deployment scenario is a *collection*: thousands of files
synchronized in one pass.  Each per-file run is CPU-bound (numpy hash
scans, delta coding) and completely independent once change detection has
split the manifest, so the collection phase parallelises embarrassingly.

:class:`SyncExecutor` fans the files out over a
``concurrent.futures.ProcessPoolExecutor``:

* **Stacked lanes** — each chunk (the whole batch, when serial) runs its
  files as the lanes of one stack (:mod:`repro.lanes`): every protocol
  round of the stack's files is one stacked call, so a round's fixed
  numpy cost is paid once per stack instead of once per file.  Each
  lane keeps its own channel and its own errors, and its channel's
  sends come back as the file's transcript.

* **Deterministic results** — outcomes are reassembled in submission
  order, so a parallel collection report is byte-identical to the serial
  one regardless of worker completion order.
* **Pickle dispatch** — each chunk's payload bytes are pickled to its
  worker.  At about 240 MB/s (``BENCH_parallel.json``) that is under 1%
  of an update that syncs at a few MB/s (DESIGN §11).
* **Size-aware scheduling** — chunks are submitted in descending
  payload-byte order (longest-processing-time heuristic), so a cluster
  of large files at the end of the manifest cannot become the straggler
  that idles every other worker.
* **Warm workers** — a pool initializer pre-sizes the hash-index,
  reference-index and delta-memo caches once per worker for the batch,
  instead of re-growing them per chunk.
* **Chunked dispatch** — many small files are shipped per task to
  amortise queue overhead; each chunk holds
  ``ceil(len(tasks) / (workers * 4))`` files, so every worker sees a
  few chunks for load balance.
* **Serial fallback** — ``workers=1``, a single task, an unpicklable
  method, or a pool that cannot be created (restricted environments) all
  degrade to the plain in-process loop with identical results.
* **Crash isolation** — a chunk whose worker dies (or whose future
  raises) is retried serially in the parent process, from the parent's
  own payload bytes, instead of aborting the whole run;
  ``BatchResult.chunk_retries`` counts how often.
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
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.lanes import Lane, step_lanes
from repro.net.channel import SentMessage
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
    ``reconstructed`` holds the bytes the client rebuilt, where the
    method's lane reports them (session methods do).  ``transcript`` is
    every message the file's lane sent, as its channel's ``recorder``
    logged them: what a pipelined run replays onto the shared link.
    """

    name: str
    outcome: MethodOutcome
    elapsed_seconds: float
    cpu_seconds: float
    error: str | None = None
    reconstructed: bytes | None = None
    transcript: list[SentMessage] = field(default_factory=list)


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


def failed_outcome(exc: ReproError) -> tuple[MethodOutcome, str]:
    """The outcome and error text a captured per-file failure reports.

    Typed failures from the resilience layer carry the doomed attempts'
    accounting (retransmission, backoff, salvaged rounds) — surface it
    instead of an empty placeholder so collection counters still see
    what the failure cost.
    """
    partial = getattr(exc, "partial", None)
    if partial is None:
        partial = MethodOutcome(total_bytes=0, correct=False)
    return partial, f"{type(exc).__name__}: {exc}"


def _worker_init(cache_entries: int) -> None:
    """Pool initializer: pre-size the caches once per worker.

    Runs once per worker process instead of once per chunk, so the
    hash-index, reference-index and delta-memo cache capacity persists
    across every chunk the worker handles.
    """
    from repro.parallel.cache import default_cache, default_reference_cache
    from repro.reuse.memo import default_delta_memo

    default_cache().ensure_capacity(cache_entries)
    default_reference_cache().ensure_capacity(cache_entries)
    default_delta_memo().ensure_capacity(cache_entries)


#: Most old-plus-new file bytes the lanes of one stack hold at once.
#: Stacking amortises each round's fixed numpy cost over the stack's
#: files; this bounds what their sessions keep resident meanwhile
#: (prefix sums and hash indexes, a small multiple of the bytes).
STACK_BYTES = 8 << 20
#: Hash-index cache entries one lane of a stack keeps in use: its two
#: prefix-sum pairs and an index per block length it looks up.  The
#: cache grows to hold every resident lane's, or the stack would evict
#: each lane's prefix sums before its first index build needs them.
CACHE_ENTRIES_PER_LANE = 16


def _run_chunk(
    method: SyncMethod,
    chunk: list[tuple[int, FileTask]],
    capture_errors: bool = False,
    link=None,
) -> tuple[list[tuple[int, FileResult]], dict[str, int]]:
    """Worker entry point: run one chunk, report its cache counter deltas.

    The chunk's files run as lanes (:mod:`repro.lanes`) of one stack,
    admitted in chunk order while their bytes fit :data:`STACK_BYTES`,
    each finished lane replaced at once.  A method whose results depend
    on file order (:attr:`~repro.syncmethod.SyncMethod.observes_file_order`)
    runs one lane at a time.  A lane's wall and CPU time are its own
    steps plus its row-weighted share of the stacked calls; its sends
    are recorded into its result's ``transcript``.  Every lane's
    channels run on ``link``.
    """
    from repro.parallel.cache import default_cache

    before = cache_counters()
    pending = deque(chunk)
    active: list[tuple[int, FileTask, Lane, list[SentMessage]]] = []
    resident = 0
    rows = []
    one_at_a_time = method.observes_file_order
    while pending or active:
        while pending and not (
            active
            and (
                one_at_a_time
                or resident + pending[0][1].total_bytes > STACK_BYTES
            )
        ):
            index, task = pending.popleft()
            transcript: list[SentMessage] = []
            steps = method.lane(
                task.name, task.old, task.new, recorder=transcript, link=link
            )
            active.append((index, task, Lane(steps), transcript))
            resident += task.total_bytes
        default_cache().ensure_capacity(CACHE_ENTRIES_PER_LANE * len(active))
        step_lanes([lane for _index, _task, lane, _transcript in active])
        running = []
        for index, task, lane, transcript in active:
            if not lane.done:
                running.append((index, task, lane, transcript))
                continue
            resident -= task.total_bytes
            rows.append(
                (index, _lane_result(task, lane, transcript, capture_errors))
            )
        active = running
    rows.sort(key=lambda row: row[0])
    return rows, cache_counters(since=before)


def _lane_result(
    task: FileTask,
    lane: Lane,
    transcript: list[SentMessage],
    capture_errors: bool,
) -> FileResult:
    """A finished lane as its file's result (or its error, raised).

    With ``capture_errors`` a :class:`ReproError` becomes the result's
    ``error``; anything else is raised.
    """
    reconstructed = error = None
    if lane.error is None:
        outcome, reconstructed = lane.value
    elif capture_errors and isinstance(lane.error, ReproError):
        outcome, error = failed_outcome(lane.error)
    else:
        raise lane.error
    return FileResult(
        task.name,
        outcome,
        lane.elapsed_s,
        lane.cpu_s,
        error=error,
        reconstructed=reconstructed,
        transcript=transcript,
    )


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
    """

    def __init__(self, workers: int | None = 1) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    # ------------------------------------------------------------------
    def run(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
        link=None,
    ) -> BatchResult:
        """Synchronise every task; results come back in input order.

        With ``capture_errors`` a per-file :class:`ReproError` is
        reported in ``FileResult.error`` instead of raised, isolating
        failures to the file that caused them.  ``link`` is the run's
        :class:`~repro.net.channel.LinkModel`: every lane's channels run
        on it.
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1 or not _is_picklable(method):
            return self._run_serial(method, tasks, capture_errors, link)
        try:
            return self._run_parallel(method, tasks, capture_errors, link)
        except Exception:
            # Pool unavailable (sandboxed semaphores, fork limits):
            # the serial path recomputes deterministically.
            return self._run_serial(method, tasks, capture_errors, link)

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
        link=None,
    ) -> BatchResult:
        rows, caches = _run_chunk(
            method, list(enumerate(tasks)), capture_errors, link
        )
        return BatchResult(
            files=[file_result for _index, file_result in rows],
            caches=caches,
        )

    def _run_parallel(
        self,
        method: SyncMethod,
        tasks: list[FileTask],
        capture_errors: bool = False,
        link=None,
    ) -> BatchResult:
        from concurrent.futures import ProcessPoolExecutor

        indexed = list(enumerate(tasks))
        chunk_size = math.ceil(len(tasks) / (self.workers * 4))
        chunks = [
            indexed[start : start + chunk_size]
            for start in range(0, len(indexed), chunk_size)
        ]
        workers_used = min(self.workers, len(chunks))
        # Workers see roughly every changed file; cap the cache so one
        # batch cannot evict-thrash its own entries mid-run.
        cache_entries = 4 * len(tasks)

        result = BatchResult(workers_used=workers_used)
        gathered = []
        failed_chunks: list[list[tuple[int, FileTask]]] = []
        with ProcessPoolExecutor(
            max_workers=workers_used,
            initializer=_worker_init,
            initargs=(cache_entries,),
        ) as pool:
            order = _lpt_order(chunks)
            futures = {
                position: pool.submit(
                    _run_chunk, method, chunks[position], capture_errors, link
                )
                for position in order
            }
            for position in order:
                try:
                    gathered.append(futures[position].result())
                except Exception:
                    # A crashed worker (or broken pool) loses its chunk —
                    # and, once the pool is broken, every chunk after it.
                    # Those files are retried serially below, from the
                    # parent's own payload bytes, instead of aborting the
                    # run.
                    failed_chunks.append(chunks[position])

        for chunk in failed_chunks:
            gathered.append(_run_chunk(method, chunk, capture_errors, link))
            result.chunk_retries += 1

        rows: list[tuple[int, FileResult]] = []
        for chunk_rows, caches in gathered:
            rows.extend(chunk_rows)
            for key, value in caches.items():
                result.caches[key] = result.caches.get(key, 0) + value
        rows.sort(key=lambda row: row[0])
        result.files = [file_result for _index, file_result in rows]
        return result
