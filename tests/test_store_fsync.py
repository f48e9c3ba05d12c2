"""Directory durability of ``CollectionStore.write_collection``.

Each file keeps its temp → fsync → rename; after the last rename, each
directory the call touched is fsynced exactly once.
"""

from __future__ import annotations

import os
import stat

from repro.collection.store import CollectionStore


def _record(monkeypatch):
    """Log every fsync (by inode, and whether it is a directory) and
    every rename (by the inode of the directory it renames into)."""
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(descriptor):
        info = os.fstat(descriptor)
        kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
        events.append((kind, info.st_ino))
        return fsync(descriptor)

    def recording_replace(source, target):
        replace(source, target)
        events.append(("rename", os.stat(os.path.dirname(target)).st_ino))

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return events


def test_each_touched_directory_is_fsynced_once_after_its_renames(
    tmp_path, monkeypatch
):
    root = tmp_path / "store"
    files = {
        "a.txt": b"A",
        "sub/dir/b.txt": b"B",
        "sub/dir/c.txt": b"C",
        "sub/d.txt": b"D",
        "other/e.txt": b"E",
    }
    events = _record(monkeypatch)
    CollectionStore(root).write_collection(files)

    directories = {
        os.stat(root / relative).st_ino: relative
        for relative in (".", "sub", "sub/dir", "other")
    }
    synced = [ino for kind, ino in events if kind == "dir"]
    assert sorted(synced) == sorted(directories)  # each once, none above root
    assert sum(kind == "file" for kind, _ino in events) == len(files)
    assert sum(kind == "rename" for kind, _ino in events) == len(files)
    for ino in directories:
        renames = [at for at, event in enumerate(events) if event == ("rename", ino)]
        assert events.index(("dir", ino)) > max(renames, default=-1)
    for name, data in files.items():
        assert (root / name).read_bytes() == data


def test_every_file_is_fsynced_before_its_rename(tmp_path, monkeypatch):
    events = _record(monkeypatch)
    CollectionStore(tmp_path).write_collection({"x/y.bin": b"1", "z.bin": b"2"})
    kinds = [kind for kind, _ino in events]
    assert kinds[:4] == ["file", "rename", "file", "rename"]
    assert kinds[4:] == ["dir", "dir"]
