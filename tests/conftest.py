"""Shared fixtures: deterministic file pairs and small workloads."""

from __future__ import annotations

import random

import pytest

from repro.workloads import EditProfile, TextGenerator, mutate


def make_text(seed: int, nbytes: int) -> bytes:
    """Deterministic code-like text of roughly ``nbytes``."""
    generator = TextGenerator(seed)
    return generator.generate(nbytes, random.Random(seed))


def make_version_pair(
    seed: int, nbytes: int = 20000, edits: int = 8
) -> tuple[bytes, bytes]:
    """A deterministic (old, new) pair with clustered, alignment-shifting
    edits — the canonical protocol test input."""
    generator = TextGenerator(seed)
    rng = random.Random(seed ^ 0xA5A5)
    old = generator.generate(nbytes, rng)
    profile = EditProfile(
        edit_count=edits,
        cluster_count=max(1, edits // 3),
        cluster_spread=180.0,
        min_size=4,
        max_size=150,
    )
    new = mutate(old, rng, profile, content=generator.snippet)
    return old, new


def core_round(session, channel) -> None:
    """Run one map-construction round of a core session: a stack of one."""
    from repro.core.protocol import CoreSyncSession, RoundRequest

    (error,) = CoreSyncSession.step_round([RoundRequest(session, channel)])
    if error is not None:
        raise error


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def text_pair() -> tuple[bytes, bytes]:
    return make_version_pair(seed=42)


@pytest.fixture
def small_pair() -> tuple[bytes, bytes]:
    return make_version_pair(seed=7, nbytes=4000, edits=3)


@pytest.fixture
def random_bytes(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(5000))
