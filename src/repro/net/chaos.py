"""Seeded chaos schedules: fault plans whose rates vary over time.

A flat :class:`~repro.net.faults.FaultPlan` models a uniformly bad link;
real links fail in *shapes* — bursts of loss, periodic interference, a
slowly degrading line.  :class:`ChaosProfile` describes such a shape as
a deterministic function of the send index, and
:class:`ScheduledFaultPlan` replays it through the ordinary fault-plan
machinery: one seeded RNG draw per send in transmit order, so a given
``(shape, seed, rate)`` triple reproduces the exact same fault sequence
everywhere — including across the retry attempts of a supervisor
sharing the plan.

The test suite's soak harness (``tests/soak.py``) sweeps a small matrix
of these shapes × seeds over multi-file collection runs, and
``benchmarks/test_fault_overhead.py`` runs adaptive against static retry
under the bursty shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.net.faults import FaultKind, FaultPlan

#: The shapes :func:`chaos_plan` knows how to build.
CHAOS_SHAPES = ("steady", "bursty", "periodic", "degrading")


@dataclass(frozen=True)
class ChaosProfile:
    """A deterministic fault-rate envelope over the send index.

    ``rate`` is the headline (peak) rate; ``quiet_rate`` the floor
    between episodes.  ``burst_every`` sends start a new cycle,
    ``burst_length`` of which run at the peak (``bursty``) — the
    ``periodic`` shape instead alternates half-cycles, and
    ``degrading`` ramps linearly from floor to peak over
    ``ramp_sends`` sends and stays there.
    """

    shape: str = "steady"
    rate: float = 0.2
    quiet_rate: float = 0.0
    burst_every: int = 200
    burst_length: int = 40
    ramp_sends: int = 1000

    def __post_init__(self) -> None:
        if self.shape not in CHAOS_SHAPES:
            raise ValueError(
                f"shape must be one of {CHAOS_SHAPES}, got {self.shape!r}"
            )
        for label in ("rate", "quiet_rate"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        if self.quiet_rate > self.rate:
            raise ValueError("quiet_rate must not exceed rate")
        if self.burst_every < 1:
            raise ValueError("burst_every must be >= 1")
        if not 0 <= self.burst_length <= self.burst_every:
            raise ValueError("burst_length must be in [0, burst_every]")
        if self.ramp_sends < 1:
            raise ValueError("ramp_sends must be >= 1")

    def rate_at(self, send_index: int) -> float:
        """Instantaneous headline fault rate for the given send (0-based)."""
        if self.shape == "steady":
            return self.rate
        if self.shape == "bursty":
            if send_index % self.burst_every < self.burst_length:
                return self.rate
            return self.quiet_rate
        if self.shape == "periodic":
            if (send_index // self.burst_every) % 2 == 1:
                return self.rate
            return self.quiet_rate
        # degrading: linear ramp floor → peak, then pinned at peak.
        fraction = min(1.0, send_index / self.ramp_sends)
        return self.quiet_rate + fraction * (self.rate - self.quiet_rate)


@dataclass
class ScheduledFaultPlan(FaultPlan):
    """A :class:`FaultPlan` whose rates follow a :class:`ChaosProfile`.

    Before every draw the instantaneous headline rate is split exactly
    like :meth:`FaultPlan.uniform` (half corruption, a quarter
    truncation, a quarter drops), preserving the one-RNG-draw-per-send
    contract — so two plans with the same profile and seed inject
    identical fault sequences regardless of what traffic they carry.
    """

    profile: ChaosProfile | None = None

    def next_fault(self, phase: str, round_index: int = 0) -> FaultKind | None:
        if self.profile is not None:
            headline = self.profile.rate_at(self.sends_seen)
            self.corrupt_rate = headline / 2
            self.truncate_rate = headline / 4
            self.drop_rate = headline / 4
        return super().next_fault(phase, round_index)


def chaos_plan(
    shape: str,
    seed: int = 0,
    rate: float = 0.2,
    **profile_overrides,
) -> ScheduledFaultPlan:
    """Build a :class:`ScheduledFaultPlan` for one named shape.

    The per-shape defaults are tuned for soak runs over collection-scale
    traffic (a few thousand sends): bursts that swallow whole protocol
    phases, periods comparable to a file's session length, and a ramp
    that crosses from harmless to hostile mid-run.
    """
    defaults: dict[str, dict[str, object]] = {
        "steady": {},
        "bursty": {"burst_every": 240, "burst_length": 48},
        "periodic": {"burst_every": 160},
        "degrading": {"quiet_rate": 0.0, "ramp_sends": 1500},
    }
    if shape not in defaults:
        raise ValueError(
            f"shape must be one of {CHAOS_SHAPES}, got {shape!r}"
        )
    settings: dict[str, object] = dict(defaults[shape])
    settings.update(profile_overrides)
    profile = ChaosProfile(shape=shape, rate=rate, **settings)
    return ScheduledFaultPlan(seed=seed, profile=profile)


@dataclass
class BitRotPlan:
    """Seeded, deterministic bit rot for a replica store on disk.

    The wire plans above attack traffic; this one attacks *rest*: it
    flips ``flips_per_file`` seeded bits in each of ``files_affected``
    victim files under a store root, writing the damage back in place —
    deliberately not via the store's atomic temp+rename path, because
    media rot does not fsync.  Victims are chosen deterministically from
    the sorted file list, so a given ``(seed, root contents)`` pair
    always rots the same bytes; the scrubber tests and the test suite's
    scrub soak rely on that to replay their convergence proof.

    Quarantine entries, in-flight ``.repro.tmp`` temporaries and empty
    files are never touched.  Returns the victims' store-relative names.
    """

    seed: int = 0
    files_affected: int = 1
    flips_per_file: int = 1

    #: Every flip applied, as ``(name, byte_offset, bit)`` — test and
    #: soak reporting hooks.
    rot_log: list[tuple[str, int, int]] = field(
        default_factory=list, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.files_affected < 1:
            raise ValueError("files_affected must be >= 1")
        if self.flips_per_file < 1:
            raise ValueError("flips_per_file must be >= 1")

    def apply(self, root: str | Path, names: list[str] | None = None) -> list[str]:
        """Rot files under ``root``; return the affected relative names.

        ``names`` (optional) restricts the victim pool to specific
        store-relative names instead of everything on disk.
        """
        from repro.collection.store import TMP_SUFFIX
        from repro.resilience.recovery import QUARANTINE_DIR

        root = Path(root)
        rng = random.Random(self.seed)
        if names is not None:
            pool = [name for name in sorted(names) if (root / name).is_file()]
        else:
            pool = sorted(
                str(path.relative_to(root))
                for path in root.rglob("*")
                if path.is_file()
                and QUARANTINE_DIR not in path.relative_to(root).parts
                and not path.name.endswith(TMP_SUFFIX)
            )
        pool = [name for name in pool if (root / name).stat().st_size > 0]
        if not pool:
            return []
        victims = sorted(
            rng.sample(pool, min(self.files_affected, len(pool)))
        )
        for name in victims:
            path = root / name
            data = bytearray(path.read_bytes())
            for _ in range(self.flips_per_file):
                bit = rng.randrange(8 * len(data))
                data[bit // 8] ^= 1 << (bit % 8)
                self.rot_log.append((name, bit // 8, bit % 8))
            path.write_bytes(bytes(data))
        return victims
