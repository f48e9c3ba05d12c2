"""Anti-entropy store scrubbing: audit replicas at rest, repair drift.

The wire protocols defend bytes in flight; nothing so far defended bytes
at *rest*.  A replica that rots on disk — cosmic rays, failing media, a
stray writer — silently diverges from its manifest and will poison every
future delta sync that trusts the local base.  The scrubber closes that
loop:

* :class:`StoreScrubber` walks the manifest in name order, re-reading
  each visible file and checking its :func:`~repro.hashing.strong.file_fingerprint`
  against the recorded one.  Divergent entries are *copied* into the
  ``.repro-quarantine`` directory (evidence preserved) while the rotten
  original stays in place — deliberately, because a mostly-correct file
  is a cheap delta base for the repair sync that follows.
* Scrubbing a large store must not monopolise the disk, so the walk is
  **rate limited** (``rate_limit_bps``) and **resumable**: an optional
  cursor file records the last audited entry so a bounded scrub
  (``max_entries``) continues where the previous one stopped, surviving
  process restarts via the store's atomic-write machinery.
* :meth:`StoreScrubber.repair` turns a scrub report into a surgical
  repair sync: only the divergent and missing entries are fetched, the
  rotten bytes serve as delta bases, and the reconstructed files are
  written back through the crash-safe store.  Any
  :func:`~repro.collection.sync.sync_collection` resilience knob
  (supervisors, fault plans, adaptive retry) passes straight through,
  so a repair can run over the same hostile link that the original
  sync survived.

Everything is deterministic given an injected clock: the default wall
clock and sleep are only reached in real deployments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.collection.manifest import Manifest, decode_name, encode_name
from repro.collection.store import CollectionStore, atomic_write_bytes
from repro.hashing.strong import file_fingerprint
from repro.resilience.recovery import quarantine_entry

#: Header line of the persisted scrub cursor (versioned like manifests).
_CURSOR_HEADER = "repro-scrub-cursor v1"


@dataclass
class ScrubReport:
    """What one scrub pass (or slice of a pass) observed and did."""

    root: Path
    #: Entries audited by *this* call (bounded by ``max_entries``).
    scanned: int = 0
    #: Entries whose bytes matched their manifest fingerprint.
    ok: int = 0
    #: Entries present on disk but fingerprint-divergent from the manifest.
    divergent: list[str] = field(default_factory=list)
    #: Manifest entries with no visible file at all.
    missing: list[str] = field(default_factory=list)
    #: Quarantine copies taken of the divergent entries.
    quarantined: list[Path] = field(default_factory=list)
    #: ``True`` when the pass reached the end of the manifest (the cursor
    #: was reset); ``False`` when ``max_entries`` stopped it early.
    completed: bool = False
    #: Bytes re-read from disk for fingerprinting.
    bytes_read: int = 0
    #: Simulated/real seconds slept to honour the rate limit.
    throttle_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not (self.divergent or self.missing)

    @property
    def damaged(self) -> list[str]:
        """Entries a repair sync must fetch, in manifest order."""
        return sorted(set(self.divergent) | set(self.missing))


class StoreScrubber:
    """Audits a :class:`~repro.collection.store.CollectionStore` against
    its manifest, a bounded rate-limited slice at a time.

    ``cursor_path`` makes scrubbing resumable across calls *and* across
    process restarts: the cursor file holds the last audited entry name
    and is written atomically after every slice.  ``rate_limit_bps``
    bounds the audit's read bandwidth in bytes per second (measured
    against ``clock``, enforced via ``sleep`` — both injectable so tests
    and soaks stay deterministic and instant).
    """

    def __init__(
        self,
        store: CollectionStore | str | Path,
        manifest: Manifest,
        cursor_path: str | Path | None = None,
        rate_limit_bps: int | None = None,
        sleep=None,
        clock=None,
    ) -> None:
        if not isinstance(store, CollectionStore):
            store = CollectionStore(store)
        if rate_limit_bps is not None and rate_limit_bps < 1:
            raise ValueError(
                f"rate_limit_bps must be >= 1, got {rate_limit_bps}"
            )
        self.store = store
        self.manifest = manifest
        self.cursor_path = Path(cursor_path) if cursor_path else None
        self.rate_limit_bps = rate_limit_bps
        self._sleep = sleep if sleep is not None else time.sleep
        self._clock = clock if clock is not None else time.monotonic

    # ------------------------------------------------------------------
    # Cursor persistence
    # ------------------------------------------------------------------

    def read_cursor(self) -> str | None:
        """Last audited entry name, or ``None`` at the start of a pass."""
        if self.cursor_path is None or not self.cursor_path.is_file():
            return None
        lines = decode_name(self.cursor_path.read_bytes()).split("\n")
        if lines[0] != _CURSOR_HEADER:
            return None  # unrecognised cursor: restart the pass
        return lines[1] if len(lines) > 1 and lines[1] else None

    def _write_cursor(self, name: str) -> None:
        if self.cursor_path is not None:
            atomic_write_bytes(
                self.cursor_path,
                f"{_CURSOR_HEADER}\n".encode() + encode_name(name) + b"\n",
            )

    def _clear_cursor(self) -> None:
        if self.cursor_path is not None:
            self.cursor_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Scrubbing
    # ------------------------------------------------------------------

    def scrub(
        self,
        max_entries: int | None = None,
        quarantine: bool = True,
    ) -> ScrubReport:
        """Audit (a slice of) the store; return what was found.

        Entries are walked in sorted manifest order starting after the
        persisted cursor.  ``max_entries`` bounds how many are audited in
        this call — the cursor then parks at the last one so the next
        call continues the pass.  A pass that reaches the end resets the
        cursor, so the following call starts over.  ``quarantine=False``
        audits without copying evidence (the soak's re-verification
        mode).
        """
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        report = ScrubReport(root=self.store.root)
        cursor = self.read_cursor()
        started = self._clock()
        names = sorted(self.manifest.entries)
        if cursor is not None:
            names = [name for name in names if name > cursor]
        for name in names:
            if max_entries is not None and report.scanned >= max_entries:
                self._write_cursor(cursor)
                return report
            path = self.store.path_for(name)
            report.scanned += 1
            cursor = name
            if not path.is_file():
                report.missing.append(name)
                continue
            data = path.read_bytes()
            report.bytes_read += len(data)
            self._throttle(report, started)
            if file_fingerprint(data) == self.manifest.entries[name]:
                report.ok += 1
            else:
                report.divergent.append(name)
                if quarantine:
                    report.quarantined.append(
                        quarantine_entry(self.store.root, path, copy=True)
                    )
        report.completed = True
        self._clear_cursor()
        return report

    def _throttle(self, report: ScrubReport, started: float) -> None:
        """Sleep long enough that cumulative reads respect the limit."""
        if self.rate_limit_bps is None:
            return
        owed = report.bytes_read / self.rate_limit_bps
        elapsed = self._clock() - started
        if owed > elapsed:
            pause = owed - elapsed
            report.throttle_s += pause
            self._sleep(pause)

    def scrub_all(self, quarantine: bool = True) -> ScrubReport:
        """Run slices until a pass completes; return the merged report."""
        merged = ScrubReport(root=self.store.root)
        while True:
            report = self.scrub(quarantine=quarantine)
            merged.scanned += report.scanned
            merged.ok += report.ok
            merged.divergent.extend(report.divergent)
            merged.missing.extend(report.missing)
            merged.quarantined.extend(report.quarantined)
            merged.bytes_read += report.bytes_read
            merged.throttle_s += report.throttle_s
            if report.completed:
                merged.completed = True
                return merged

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def repair(
        self,
        server_files: dict[str, bytes],
        report: ScrubReport | None = None,
        method=None,
        **sync_kwargs,
    ):
        """Sync the damaged entries back from ``server_files``.

        Only the report's divergent + missing entries travel: divergent
        files keep their rotten on-disk bytes as the delta base (which is
        why :meth:`scrub` quarantines *copies*), missing files arrive as
        compressed full transfers.  The reconstruction is written back
        through the crash-safe store and verified byte-for-byte.

        ``method`` defaults to the multiround protocol (whose surgical
        repair rounds handle any collision the rot may induce); pass a
        :class:`~repro.resilience.SyncSupervisor` wrapping it for fault
        plans, retry policies or checkpoints.  ``sync_kwargs`` pass
        through to :func:`~repro.collection.sync.sync_collection`.
        """
        from repro.collection.sync import sync_collection

        if report is None:
            report = self.scrub_all(quarantine=False)
        if method is None:
            from repro.bench.methods import MultiroundRsyncMethod

            method = MultiroundRsyncMethod()
        damaged = report.damaged
        missing_on_server = [
            name for name in damaged if name not in server_files
        ]
        if missing_on_server:
            raise ValueError(
                "server is missing damaged entries: "
                + ", ".join(missing_on_server[:5])
            )
        client_subset = {
            name: self.store.read_file(name)
            for name in damaged
            if self.store.path_for(name).is_file()
        }
        server_subset = {name: server_files[name] for name in damaged}
        sync_kwargs.setdefault("store", self.store)
        return sync_collection(
            client_subset, server_subset, method, **sync_kwargs
        )
