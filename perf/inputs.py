"""Seeded inputs of the benchmark's four workloads.

``gcc-release`` and ``fleet-broadcast`` come straight from the program's
own generators, ``repro.workloads.gcc_like`` and ``make_fleet``, with
only their size arguments chosen here.  ``binary-churn`` and
``slow-link-pipelined`` use copies of ``build_delta_workload`` and
``build_workload`` from ``repro.bench.perfbaseline``, kept here so that a
rewrite of that module cannot change the benchmark's inputs.

``input_digest`` hashes a generated input, and ``digests.json`` pins it
for seeds 1 and 2, so a change to the generators in ``src/`` cannot
silently re-baseline a workload.
"""

from __future__ import annotations

import hashlib
import random

from repro.workloads import FleetWorkload, gcc_like, make_fleet

#: ``gcc_like(scale=3.0)``: about 760 files, 6.3 MB on the new side.
GCC_SCALE = 3.0

BINARY_FILES = 24
BINARY_FILE_KB = 48

SLOW_LINK_FILES = 200
SLOW_LINK_FILE_KB = 8
SLOW_LINK_EDITS = 4

FLEET_CLIENTS = 32
FLEET_FILES = 48
FLEET_VERSIONS = 6
FLEET_MEAN_SIZE = 24 * 1024


def gcc_release(seed: int) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A gcc 2.7.0 -> 2.7.1 shaped release pair: (old tree, new tree)."""
    tree = gcc_like(scale=GCC_SCALE, seed=seed)
    return tree.old, tree.new


def binary_churn(seed: int) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """Random binary references; targets interleave copied and novel runs.

    Each target alternates copied reference regions (2-8 KB) with novel
    random runs (1-4 KB), roughly 40% novel bytes overall.
    """
    rng = random.Random(seed)
    size = BINARY_FILE_KB * 1024
    old: dict[str, bytes] = {}
    new: dict[str, bytes] = {}
    for index in range(BINARY_FILES):
        reference = rng.randbytes(size)
        target = bytearray()
        position = 0
        while position < size:
            copy_length = rng.randrange(2048, 8192)
            target += reference[position : position + copy_length]
            position += copy_length
            target += rng.randbytes(rng.randrange(1024, 4096))
        name = f"blob{index:03d}.bin"
        old[name] = reference
        new[name] = bytes(target)
    return old, new


def slow_link(seed: int) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """Distinct random files, each changed by a few 64 -> 96 byte edits."""
    rng = random.Random(seed)
    size = SLOW_LINK_FILE_KB * 1024
    old: dict[str, bytes] = {}
    new: dict[str, bytes] = {}
    for index in range(SLOW_LINK_FILES):
        data = rng.randbytes(size)
        edited = bytearray(data)
        for _ in range(SLOW_LINK_EDITS):
            at = rng.randrange(max(1, size - 256))
            edited[at : at + 64] = rng.randbytes(96)
        name = f"f{index:03d}.bin"
        old[name] = data
        new[name] = bytes(edited)
    return old, new


def fleet(seed: int) -> FleetWorkload:
    """A version chain and a fleet of clients at random staleness."""
    return make_fleet(
        clients=FLEET_CLIENTS,
        files=FLEET_FILES,
        versions=FLEET_VERSIONS,
        mean_size=FLEET_MEAN_SIZE,
        seed=seed,
    )


def _hash_files(digest, label: str, files: dict[str, bytes]) -> None:
    digest.update(f"{label}:{len(files)}\n".encode())
    for name in sorted(files):
        digest.update(f"{name}:{len(files[name])}\n".encode())
        digest.update(files[name])


def input_digest(inputs) -> str:
    """sha256 of a generated input: an (old, new) pair or a fleet."""
    digest = hashlib.sha256()
    if isinstance(inputs, FleetWorkload):
        for number, version in enumerate(inputs.versions):
            _hash_files(digest, f"version{number}", version)
        for client in inputs.clients:
            _hash_files(digest, f"{client.name}@{client.version}", client.files)
    else:
        old, new = inputs
        _hash_files(digest, "old", old)
        _hash_files(digest, "new", new)
    return digest.hexdigest()
