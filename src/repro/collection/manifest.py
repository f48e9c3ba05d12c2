"""File manifests: name → 16-byte fingerprint.

"We do not focus on this aspect and instead use a fingerprint for each
file as this is efficient enough for our data sets" — the manifest is that
fingerprint exchange, and its wire cost is charged to every method
equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.hashing.strong import file_fingerprint


class ManifestFormatError(ReproError):
    """A manifest could not be parsed, or a file name not encoded."""


def encode_name(name: str) -> bytes:
    """The bytes of a file name, on the wire and on disk.

    UTF-8 with ``surrogateescape``, so a name ``os.fsdecode`` made from
    non-UTF-8 bytes encodes as those bytes and a UTF-8 name as its UTF-8.
    A name that still cannot be encoded (a lone surrogate outside the
    escape range, such as ``"\ud800"``) raises
    :class:`ManifestFormatError`.
    """
    try:
        return name.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError as error:
        raise ManifestFormatError(
            f"file name cannot be encoded: {name!r}"
        ) from error


def decode_name(data: bytes) -> str:
    """The file name :func:`encode_name` made ``data`` from; never fails."""
    return data.decode("utf-8", "surrogateescape")


@dataclass
class Manifest:
    """Fingerprints of one collection snapshot."""

    entries: dict[str, bytes] = field(default_factory=dict)

    @classmethod
    def of_collection(cls, files: dict[str, bytes]) -> "Manifest":
        return cls({name: file_fingerprint(data) for name, data in files.items()})

    def wire_bytes(self) -> int:
        """Serialized size: each entry is its encoded name
        (:func:`encode_name`), a NUL, and the 16-byte fingerprint."""
        return sum(len(encode_name(name)) + 1 + 16 for name in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ManifestDiff:
    """What a client must do to catch up with the server."""

    unchanged: list[str] = field(default_factory=list)
    changed: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)  # only on the server
    removed: list[str] = field(default_factory=list)  # only on the client


def diff_manifests(client: Manifest, server: Manifest) -> ManifestDiff:
    """Classify every file name across the two snapshots."""
    diff = ManifestDiff()
    for name in sorted(server.entries):
        if name not in client.entries:
            diff.added.append(name)
        elif client.entries[name] == server.entries[name]:
            diff.unchanged.append(name)
        else:
            diff.changed.append(name)
    diff.removed = sorted(set(client.entries) - set(server.entries))
    return diff
