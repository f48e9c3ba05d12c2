"""On-disk collection store: manifests and atomically-written replicas.

A real mirror keeps yesterday's fingerprints so the next update can
detect changes without re-reading (or even still having) yesterday's
bytes.  The manifest format is deliberately boring: a versioned header
line, then one ``<hex fingerprint> <name>`` line per file, sorted —
diff-able, greppable, append-friendly.

Everything this module puts on disk is written *atomically*: bytes go to
a ``*.repro.tmp`` sibling, are flushed and fsynced, and only then renamed
over the visible path.  A crash at any instant therefore leaves either
the previous intact version or the new intact version — plus possibly an
orphaned temporary, which the startup sweep
(:func:`repro.resilience.recovery.recover_store`) quarantines.  A torn
*visible* file is impossible.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

from repro.collection.manifest import Manifest
from repro.exceptions import ReproError, StoreNameError

_HEADER = "repro-manifest v1"

#: Suffix of in-flight atomic writes.  Distinctive on purpose: the crash
#: sweep may quarantine anything carrying it without risking user files.
TMP_SUFFIX = ".repro.tmp"

#: Fault-injection hook for crash tests: when set to an integer N, the
#: process SIGKILLs itself during its Nth atomic write — after the
#: temporary is durable but *before* the rename, the worst-possible
#: instant for a non-atomic writer.
CRASH_AFTER_WRITES_ENV = "REPRO_CRASH_AFTER_WRITES"
_writes_started = 0


class ManifestFormatError(ReproError):
    """A manifest file could not be parsed."""


def _crash_hook() -> None:
    budget = os.environ.get(CRASH_AFTER_WRITES_ENV)
    if budget is None:
        return
    global _writes_started
    _writes_started += 1
    if _writes_started >= int(budget):
        os.kill(os.getpid(), signal.SIGKILL)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` so a crash can never tear it.

    temp → flush → fsync → rename: the visible path always holds either
    its previous content or ``data`` in full.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + TMP_SUFFIX)
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    _crash_hook()
    os.replace(temp, path)
    return path


class CollectionStore:
    """A replica directory written with crash-safe semantics.

    Entry names are collection-relative paths; anything that would
    escape the root (absolute paths, ``..`` traversal) is rejected.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        relative = Path(name)
        if relative.is_absolute() or ".." in relative.parts:
            raise StoreNameError(
                f"entry name escapes the store root: {name!r}"
            )
        return self.root / relative

    def write_file(self, name: str, data: bytes) -> Path:
        """Atomically materialise one reconstructed entry."""
        return atomic_write_bytes(self.path_for(name), data)

    def write_collection(self, files: dict[str, bytes]) -> list[Path]:
        """Materialise many entries (sorted, each one atomic)."""
        return [self.write_file(name, files[name]) for name in sorted(files)]

    def read_file(self, name: str) -> bytes:
        return self.path_for(name).read_bytes()


def save_manifest(manifest: Manifest, path: str | Path) -> Path:
    """Write a manifest to ``path`` (overwrites; atomic).

    Names are written as UTF-8 with ``surrogateescape``, so a name
    ``os.fsdecode`` made from non-UTF-8 bytes is written as those bytes.
    A name that still cannot be encoded (a lone surrogate outside the
    escape range) raises :class:`ManifestFormatError`.
    """
    path = Path(path)
    lines = [_HEADER.encode()]
    for name in sorted(manifest.entries):
        if "\n" in name:
            raise ManifestFormatError(f"file name contains newline: {name!r}")
        try:
            encoded = name.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError as error:
            raise ManifestFormatError(
                f"file name cannot be encoded: {name!r}"
            ) from error
        lines.append(manifest.entries[name].hex().encode() + b" " + encoded)
    return atomic_write_bytes(path, b"\n".join(lines) + b"\n")


def load_manifest(path: str | Path) -> Manifest:
    """Read a manifest written by :func:`save_manifest`."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8", "surrogateescape")
    except OSError as error:
        raise ManifestFormatError(f"cannot read {path}: {error}") from error
    # Entries end at "\n" only, the one separator save_manifest rejects in
    # names: "\r", "\x85" or U+2028 inside a name are part of the name.
    lines = text.split("\n")
    if not lines or lines[0] != _HEADER:
        raise ManifestFormatError(f"{path} is not a repro manifest")
    entries: dict[str, bytes] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            fingerprint_hex, name = line.split(" ", 1)
            fingerprint = bytes.fromhex(fingerprint_hex)
        except ValueError as error:
            raise ManifestFormatError(
                f"{path}:{lineno}: malformed entry {line!r}"
            ) from error
        if len(fingerprint) != 16:
            raise ManifestFormatError(
                f"{path}:{lineno}: fingerprint must be 16 bytes"
            )
        if name in entries:
            raise ManifestFormatError(f"{path}:{lineno}: duplicate {name!r}")
        entries[name] = fingerprint
    return Manifest(entries)
