"""Deterministic fault injection for the simulated channel.

The paper's protocols assume a lossless ordered transport; a production
replica-maintenance system over flaky links cannot.  This module makes
the failure modes of such links *reproducible*:

* :class:`FaultPlan` — a seeded schedule deciding, per transmitted
  message, whether to corrupt it (bit-flip), truncate it, drop it, or
  tear the connection down, optionally restricted to specific protocol
  phases (``"map"``, ``"delta"``, ...).
* :class:`FaultyChannel` — a :class:`~repro.net.channel.SimulatedChannel`
  that frames every payload with a length + CRC32 header
  (:mod:`repro.net.frame`) and executes the plan.  Corruption and
  truncation surface as :class:`~repro.exceptions.FrameCorruptionError`
  at the receiver; a dropped message leaves the receiver staring at an
  empty queue (:class:`~repro.exceptions.ChannelEmptyError`); a
  disconnect closes the channel mid-send
  (:class:`~repro.exceptions.ChannelClosedError`).

Every decision comes from one seeded RNG consumed in send order, so a
given plan replays the exact same fault sequence — including across the
retry attempts of a supervisor sharing the plan, which therefore see
*fresh* randomness rather than deterministically re-hitting the same
fault forever.

Byte accounting: a mangled or dropped message still crossed (part of)
the wire, so its payload bits are recorded exactly as on a clean
channel.  What recovery *additionally* costs is charged separately — see
:meth:`repro.net.metrics.TransferStats.record_retransmission`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.exceptions import ChannelClosedError, DeltaFormatError
from repro.io.varint import decode_token_stream, encode_token_stream
from repro.net.channel import LinkModel, SimulatedChannel
from repro.net.frame import decode_frame, encode_frame
from repro.net.metrics import Direction


class FaultKind(Enum):
    """What happens to one transmitted message."""

    CORRUPT = "corrupt"
    TRUNCATE = "truncate"
    DROP = "drop"
    DISCONNECT = "disconnect"
    #: Semantic mutation of a delta payload that survives CRC framing:
    #: the wire-level weak-hash collision (:class:`CollisionFaultPlan`).
    COLLIDE = "collide"


class FaultEvent(NamedTuple):
    """One injected fault, with enough context to correlate failure point
    with recovery cost: which send it hit, in which protocol phase, and —
    when the protocol marks rounds on its channel — in which round."""

    kind: FaultKind
    phase: str
    send_index: int
    round_index: int


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of channel faults.

    Rates are per-message probabilities, drawn once per send in transmit
    order; their sum must not exceed 1.  ``phases`` (``None`` = all)
    restricts probabilistic faults to the named protocol phases, which is
    how tests target "corruption in the map phase" or "a drop in the
    delta phase".  ``disconnect_after_sends`` fires exactly once, on the
    Nth send overall — modelling a mid-protocol link loss — and is
    disarmed afterwards so retries can complete.  ``max_faults`` caps the
    number of probabilistic faults injected in total.
    """

    seed: int = 0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    drop_rate: float = 0.0
    disconnect_after_sends: int | None = None
    phases: frozenset[str] | None = None
    max_faults: int | None = None

    sends_seen: int = field(default=0, init=False, repr=False)
    injected: Counter = field(default_factory=Counter, init=False, repr=False)
    #: Every injected fault in transmit order, with phase/round context.
    fault_log: "list[FaultEvent]" = field(
        default_factory=list, init=False, repr=False
    )
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for label in ("corrupt_rate", "truncate_rate", "drop_rate"):
            rate = getattr(self, label)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if self.corrupt_rate + self.truncate_rate + self.drop_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if (self.disconnect_after_sends is not None
                and self.disconnect_after_sends < 1):
            raise ValueError("disconnect_after_sends must be >= 1")
        if self.phases is not None:
            self.phases = frozenset(self.phases)
        self._rng = random.Random(self.seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """An all-phase mix at a single headline rate.

        Splits ``rate`` as half corruption, a quarter truncation and a
        quarter drops — the blend the CLI's ``--fault-rate`` uses.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        return cls(
            seed=seed,
            corrupt_rate=rate / 2,
            truncate_rate=rate / 4,
            drop_rate=rate / 4,
            **overrides,
        )

    @property
    def faults_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def disconnect_rounds(self) -> list[int]:
        """Protocol round index at which each disconnect fired.

        Round 0 means "before the first round" (handshake traffic, or a
        protocol that does not mark rounds on its channel).  Fault-matrix
        rows use this to correlate the failure point with recovery cost.
        """
        return [
            event.round_index
            for event in self.fault_log
            if event.kind is FaultKind.DISCONNECT
        ]

    def next_fault(self, phase: str, round_index: int = 0) -> FaultKind | None:
        """Decide the fate of the next message sent under this plan."""
        self.sends_seen += 1
        if self.sends_seen == self.disconnect_after_sends:
            self._record(FaultKind.DISCONNECT, phase, round_index)
            return FaultKind.DISCONNECT
        if self.phases is not None and phase not in self.phases:
            return None
        if (self.max_faults is not None
                and self.faults_injected >= self.max_faults):
            return None
        draw = self._rng.random()
        if draw < self.corrupt_rate:
            kind = FaultKind.CORRUPT
        elif draw < self.corrupt_rate + self.truncate_rate:
            kind = FaultKind.TRUNCATE
        elif draw < self.corrupt_rate + self.truncate_rate + self.drop_rate:
            kind = FaultKind.DROP
        else:
            return None
        self._record(kind, phase, round_index)
        return kind

    def _record(self, kind: FaultKind, phase: str, round_index: int) -> None:
        self.injected[kind] += 1
        self.fault_log.append(
            FaultEvent(kind, phase, self.sends_seen, round_index)
        )

    def mangle(self, frame: bytes, kind: FaultKind) -> bytes:
        """Apply ``kind`` to one encoded frame."""
        if kind is FaultKind.CORRUPT:
            corrupted = bytearray(frame)
            bit = self._rng.randrange(8 * len(corrupted))
            corrupted[bit // 8] ^= 1 << (bit % 8)
            return bytes(corrupted)
        if kind is FaultKind.TRUNCATE:
            return frame[: self._rng.randrange(len(frame))]
        raise ValueError(f"{kind} does not mangle payloads")

    def collide(self, payload: bytes, phase: str, round_index: int = 0) -> bytes:
        """Semantically mutate a payload (collision plans override)."""
        raise ValueError(f"{type(self).__name__} does not inject collisions")

    def channel(self, link: LinkModel | None = None) -> "FaultyChannel":
        """A fresh channel driven by (and advancing) this plan."""
        return FaultyChannel(self, link)


class FaultyChannel(SimulatedChannel):
    """A simulated channel whose messages suffer a :class:`FaultPlan`.

    Payloads are CRC32-framed on send and verified on receive, so
    injected corruption is detected rather than silently delivered.
    Framing overhead is not charged to the stats — accounting stays
    byte-identical to a clean :class:`SimulatedChannel` carrying the
    same traffic, which keeps faulty benchmark rows comparable.
    """

    def __init__(self, plan: FaultPlan, link: LinkModel | None = None) -> None:
        super().__init__(link)
        self.plan = plan

    def send(
        self,
        direction: Direction,
        payload: bytes,
        phase: str,
        bits: int | None = None,
    ) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        fault = self.plan.next_fault(phase, round_index=self.current_round)
        if fault is FaultKind.DISCONNECT:
            self.close()
            raise ChannelClosedError(
                f"link dropped during {phase!r} send "
                f"#{self.plan.sends_seen} (injected disconnect)"
            )
        if fault is FaultKind.COLLIDE:
            # Semantic mutation happens *before* framing: the mutated
            # payload carries a valid CRC and decodes cleanly, exactly
            # like a weak-hash collision the frame layer cannot see.
            payload = self.plan.collide(
                payload, phase, round_index=self.current_round
            )
        # Base-class send performs the exact accounting (bits, roundtrips)
        # and enqueues the raw payload; swap it for the (possibly mangled)
        # frame so the receiver can check integrity.
        super().send(direction, payload, phase, bits)
        frame = encode_frame(self._queues[direction].pop())
        if fault in (FaultKind.CORRUPT, FaultKind.TRUNCATE):
            frame = self.plan.mangle(frame, fault)
        if fault is not FaultKind.DROP:
            self._queues[direction].append(frame)

    def receive(self, direction: Direction) -> bytes:
        return decode_frame(super().receive(direction))


@dataclass
class CollisionFaultPlan(FaultPlan):
    """Force weak-hash-collision semantics onto delta traffic.

    Frame-level corruption is *detectable* — the CRC catches it.  A
    truncated-hash collision is not: the transmitted rolling/strong
    hashes are all genuine, the delta decodes cleanly, and only the
    whole-file fingerprint can reveal that a block's *content* is wrong.
    This plan reproduces exactly that: it rewrites a delta payload's
    decompressed token stream (a length-preserving literal byte flip, or
    retargeting a copy token to equally-sized wrong source bytes) and
    re-compresses, leaving every transmitted hash and the CRC framing
    intact.  Understands the rsync delta layout (16-byte fingerprint +
    zlib token stream) and the multiround layout (bare zlib token
    stream); unrecognised payloads pass through untouched and unrecorded.

    Deterministic like its parent: the first ``max_collisions`` sends in
    ``collide_phase`` (after ``skip_deltas`` passes) are hit, and every
    random choice inside the mutation comes from the plan's seeded RNG.
    The classic probabilistic fault rates still apply on top if set.
    """

    max_collisions: int = 1
    collide_phase: str = "delta"
    #: Delta-phase sends to let through before colliding — selects which
    #: file of a collection run takes the hit.
    skip_deltas: int = 0

    _deltas_seen: int = field(default=0, init=False, repr=False)

    def next_fault(self, phase: str, round_index: int = 0) -> FaultKind | None:
        fault = super().next_fault(phase, round_index)
        if fault is not None:
            return fault
        if phase != self.collide_phase:
            return None
        self._deltas_seen += 1
        if self._deltas_seen <= self.skip_deltas:
            return None
        if self.injected[FaultKind.COLLIDE] >= self.max_collisions:
            return None
        return FaultKind.COLLIDE

    def collide(self, payload: bytes, phase: str, round_index: int = 0) -> bytes:
        mutated = self._mutate_delta(payload)
        if mutated is None:
            return payload
        self._record(FaultKind.COLLIDE, phase, round_index)
        return mutated

    def _mutate_delta(self, payload: bytes) -> bytes | None:
        """Rewrite one delta payload; ``None`` when nothing safe to hit."""
        import zlib

        for prefix in (0, 16):  # multiround: bare stream; rsync: fp + stream
            if len(payload) <= prefix:
                continue
            try:
                raw = zlib.decompress(payload[prefix:])
            except zlib.error:
                continue
            rsync_refs = prefix == 16
            copy_fields = 1 if rsync_refs else 2
            try:
                tokens = decode_token_stream(
                    raw, copy_fields, DeltaFormatError
                )
            except DeltaFormatError:
                return None
            if not self._mutate_tokens(tokens, rsync_refs):
                return None
            return payload[:prefix] + zlib.compress(
                encode_token_stream(tokens), 9
            )
        return None

    def _mutate_tokens(self, tokens: list, rsync_refs: bool) -> bool:
        """Flip one byte inside a literal, preserving stream shape.

        Tokens are the shared COPY/ADD grammar: literal bytes, or a copy's
        fields (rsync: the block index; multiround: client_start and
        length).  When the stream carries no literal, retarget a copy
        instead: rsync copies get their block index nudged to an adjacent
        interior block, multiround copies their ``client_start`` shifted
        back one length — both substitute equally-sized wrong source
        bytes.  Mutates ``tokens`` in place; ``False`` when nothing is
        safe to hit.
        """
        literals = [
            at for at, token in enumerate(tokens)
            if not isinstance(token, tuple)
        ]
        if literals:
            at = literals[self._rng.randrange(len(literals))]
            data = bytearray(tokens[at])
            flip = self._rng.randrange(len(data))
            data[flip] ^= self._rng.randrange(1, 256)
            tokens[at] = bytes(data)
            return True

        if rsync_refs:
            # Retarget a reference to a different interior block: indexes
            # below the maximum seen are full-size, so lengths hold.
            interior = sorted({index for (index,) in tokens})[:-1]
            if len(interior) < 2:
                return False
            victim = self._rng.choice(interior)
            replacement = self._rng.choice(
                [i for i in interior if i != victim]
            )
            tokens[tokens.index((victim,))] = (replacement,)
            return True

        # Multiround: shift a copy's client_start back by its own length
        # (stays in range — the original window already fits).
        candidates = [
            at for at, (client_start, length) in enumerate(tokens)
            if client_start >= length > 0
        ]
        if not candidates:
            return False
        at = candidates[self._rng.randrange(len(candidates))]
        client_start, length = tokens[at]
        tokens[at] = (client_start - length, length)
        return True
