"""The per-file synchronization method interface.

Neutral home for the types shared by the collection layer (which drives a
method over many files) and the benchmark harness (which defines the
concrete adapters) — keeping those two packages import-cycle free.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields


def _counter(default=0, merge=operator.add, column: bool = True):
    """A :class:`MethodOutcome` field: its default and merge rule.

    ``merge`` combines two outcomes' values (``+`` by default) whenever
    outcomes are added: a collection's totals, a supervisor charging
    its failed attempts to the attempt that succeeded.
    ``column`` says whether the collection's merged value is a column of
    its own in the benchmark row; fields the report accounts for under
    another name (``total_bytes``, ``retries``, ``roundtrips``) or that
    only make sense per file are not.
    """
    return field(default=default, metadata={"merge": merge, "column": column})


def _merge_breakdown(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class MethodOutcome:
    """Bandwidth accounting for one file synchronised by one method.

    The resilience fields default to "nothing went wrong" so outcomes
    from a clean run are unchanged: ``retries`` counts failed attempts
    that preceded this result, ``fallback_method`` names the ladder rung
    that finally succeeded (``None`` = the primary method),
    ``retransmitted_bytes`` is the wire cost of the failed attempts and
    ``recovery_seconds`` the estimated wall-clock they burnt (backoff
    plus wasted transfer time on the configured link).

    The checkpoint fields likewise stay zero unless a supervisor ran
    with durable round checkpoints: ``rounds_salvaged`` counts protocol
    rounds a resume skipped instead of re-buying, ``resume_handshake_bits``
    the wire cost of agreeing to resume, and ``checkpoint_bytes_written``
    the *local* journal bytes fsynced (disk cost, never wire cost).

    The adaptive fields describe the health-aware layer (DESIGN §14) and
    default to "perfect link, nothing adapted": ``health_score`` is the
    windowed link-health estimate after this file (1.0 = pristine;
    merged with ``min`` so an aggregate reflects the worst link seen),
    ``breaker_opens`` counts circuit-breaker trips, ``deadline_salvages``
    checkpointed rounds preserved by a deadline breach, and
    ``adaptive_backoff_s`` the simulated seconds the AIMD schedule spent
    waiting (a subset of ``recovery_seconds``).

    The integrity fields stay zero unless the whole-file fingerprint
    rejected a reconstruction: ``collisions_detected`` counts those
    rejections, ``repair_rounds`` the group-digest descent roundtrips
    spent localizing them, and ``repair_bytes`` the wire bytes of the
    surgical repair exchanges (already included in ``total_bytes``).

    This class is the one place a per-file counter is declared: each
    field carries its merge rule (sum unless :func:`_counter` says
    otherwise), ``+`` applies the rules field by field, and the
    collection report, the benchmark row, the export columns and
    ``repro-sync sync --json`` are all derived from the fields
    (DESIGN §18).  Adding a counter is adding a field.
    """

    total_bytes: int = field(metadata={"merge": operator.add, "column": False})
    client_to_server: int = _counter(column=False)
    server_to_client: int = _counter(column=False)
    breakdown: dict[str, int] = field(
        default_factory=dict,
        metadata={"merge": _merge_breakdown, "column": False},
    )
    correct: bool = _counter(True, merge=lambda a, b: a and b, column=False)
    retries: int = _counter(column=False)
    fallback_method: str | None = _counter(
        None, merge=lambda a, b: a or b, column=False
    )
    retransmitted_bytes: int = _counter()
    recovery_seconds: float = _counter(0.0)
    rounds_salvaged: int = _counter()
    resume_handshake_bits: int = _counter()
    checkpoint_bytes_written: int = _counter()
    health_score: float = _counter(1.0, merge=min)
    breaker_opens: int = _counter()
    deadline_salvages: int = _counter()
    adaptive_backoff_s: float = _counter(0.0)
    collisions_detected: int = _counter()
    repair_rounds: int = _counter()
    repair_bytes: int = _counter()
    roundtrips: int = _counter(column=False)
    #: Reuse-layer accounting (DESIGN §17), zero unless a sibling
    #: reference served where only a literal transfer was possible:
    #: ``sibling_refs_used`` counts files delta-coded against a similar
    #: sibling instead of sent in full, ``bytes_saved_vs_self_ref`` the
    #: wire bytes that choice saved versus the self-reference-only
    #: baseline (a compressed full transfer), and ``dedup_hits`` the
    #: files served by content identity (renames, zero wire bytes).
    sibling_refs_used: int = _counter()
    bytes_saved_vs_self_ref: int = _counter()
    dedup_hits: int = _counter()

    def __add__(self, other: "MethodOutcome") -> "MethodOutcome":
        return MethodOutcome(
            **{
                spec.name: spec.metadata["merge"](
                    getattr(self, spec.name), getattr(other, spec.name)
                )
                for spec in fields(self)
            }
        )


def wire_outcome(result, new: bytes) -> MethodOutcome:
    """Flatten a protocol result (with ``.stats``) into a MethodOutcome.

    ``result`` is a :class:`~repro.core.protocol.SyncResult`,
    :class:`~repro.rsync.protocol.RsyncResult` or
    :class:`~repro.multiround.protocol.MultiroundResult`: an
    :class:`~repro.core.repair.IntegrityOutcome` with ``total_bytes``
    and a :class:`~repro.net.metrics.TransferStats` ``stats``.  A
    protocol-internal full-transfer fallback reclassifies its traffic
    into ``stats.retransmitted_bits``, which must survive the flattening
    even without a supervisor around.
    """
    return MethodOutcome(
        total_bytes=result.total_bytes,
        client_to_server=result.stats.client_to_server_bytes,
        server_to_client=result.stats.server_to_client_bytes,
        breakdown=dict(result.stats.breakdown()),
        correct=result.reconstructed == new,
        retransmitted_bytes=result.stats.retransmitted_bytes,
        collisions_detected=result.collisions_detected,
        repair_rounds=result.repair_rounds,
        repair_bytes=result.repair_bytes,
        roundtrips=result.stats.roundtrips,
    )


class SyncMethod(ABC):
    """One row of the paper's comparison tables."""

    name: str
    #: True for methods whose protocol is factored into a resumable
    #: step-wise session (a ``steps`` lane), built by
    #: :meth:`open_session`: the supervisor journals its round
    #: boundaries (they then also implement ``checkpoint_identity``) and
    #: the collection executor stacks its rounds with other files'.
    #: Methods without one run as a single step.
    has_session: bool = False
    #: Declares whether instances can cross a process boundary.  ``None``
    #: (default) makes the parallel executor probe with ``pickle.dumps``
    #: once per instance; final method classes that are known picklable
    #: set ``True`` to skip the probe entirely.  Subclasses that add
    #: unpicklable state (closures, open handles) must override this
    #: back to ``None`` or ``False``.
    supports_pickle: bool | None = None
    #: Whether results depend on the order files run in (shared fault
    #: randomness, breakers, deadlines): such a method's lanes run one
    #: at a time, never stacked.
    observes_file_order: bool = False

    @abstractmethod
    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        """Synchronise one file pair; return the transfer accounting."""

    def open_session(self, old: bytes, new: bytes, checkpointer=None):
        """Build a step-wise protocol session for one file pair.

        Only meaningful when ``has_session`` is true.  The returned
        object exposes ``steps(channel, resume_from=None)``, the session
        as a lane (:mod:`repro.lanes`), with the exact wire traffic of
        the run-to-completion path, so a driver can stack many files'
        rounds while keeping each file's transcript
        byte-identical to a run of its own.
        """
        raise NotImplementedError(f"{self.name} has no step-wise session")

    def steps(self, old: bytes, new: bytes, channel, checkpointer=None,
              resume_from=None):
        """Synchronise one file pair over ``channel``, one step at a time.

        A lane generator (:mod:`repro.lanes`): it yields after the
        handshake and after every protocol round, passes the session's
        stacked requests through to the driver, and returns
        ``(outcome, reconstructed)`` — the client's rebuilt bytes, or
        ``None`` for a method without a session, which runs
        :meth:`sync_file_over` as one step.  ``checkpointer`` (an opened
        :class:`~repro.resilience.checkpoint.SessionJournal`) and
        ``resume_from`` (a
        :class:`~repro.resilience.checkpoint.RoundCheckpoint`) pass
        through to the session.
        """
        if not self.has_session:
            return self.sync_file_over(old, new, channel), None
        session = self.open_session(old, new, checkpointer=checkpointer)
        result = yield from session.steps(channel, resume_from=resume_from)
        return wire_outcome(result, new), result.reconstructed

    def lane(
        self,
        name: str | None,
        old: bytes,
        new: bytes,
        recorder=None,
        link=None,
    ):
        """The lane the collection executor runs for one file.

        :meth:`steps` over a fresh channel on ``link`` (the run's
        :class:`~repro.net.channel.LinkModel`, default when ``None``)
        whose sends go to ``recorder`` (see
        :attr:`~repro.net.channel.SimulatedChannel.recorder`).  A
        supervisor overrides this with its retry/fallback loop.
        """
        from repro.net.channel import SimulatedChannel

        channel = SimulatedChannel(link)
        channel.recorder = recorder
        return (yield from self.steps(old, new, channel))

    def sync_file_over(self, old: bytes, new: bytes, channel) -> MethodOutcome:
        """Synchronise one file pair over a caller-supplied channel.

        Wire methods override this to route their traffic through
        ``channel`` (a :class:`~repro.net.channel.SimulatedChannel`,
        possibly fault-injected) so a supervisor can observe and retry
        failures.  The default ignores the channel — correct for local
        methods (delta coders) that never touch the wire.
        """
        return self.sync_file(old, new)
