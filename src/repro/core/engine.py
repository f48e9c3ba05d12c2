"""Round-engine selection for the multiround protocol.

:func:`repro.multiround.protocol.multiround_rsync_sync` ships two round
engines that put byte-identical traffic on the wire:

* ``"vectorized"`` (default) processes every round as whole-block numpy
  arrays — one batched map construction, one batched candidate lookup,
  batched verification scheduling;
* ``"scalar"`` is the original block-at-a-time loop, kept as the parity
  oracle (``engine="scalar"`` or ``REPRO_PROTOCOL_ENGINE=scalar``),
  exactly like the delta matcher's ``REPRO_DELTA_ENGINE`` (DESIGN §12).

The core protocol (:func:`repro.core.synchronize`) has a single engine,
the array frontier; its oracle is the golden transcript set (DESIGN §13).

The contract mirrors the delta engine's: an explicit ``engine=`` argument
is validated and raises ``ValueError`` on garbage, while a garbage
environment value silently falls back to ``"vectorized"`` (an env var
must never be able to break a run).
"""

from __future__ import annotations

import os

#: Valid values for every protocol-level ``engine`` argument.
ENGINES = ("vectorized", "scalar")

#: Environment override for the default engine (parity bisection, perf
#: comparisons): ``REPRO_PROTOCOL_ENGINE=scalar`` selects the oracle.
ENGINE_ENV = "REPRO_PROTOCOL_ENGINE"


def default_engine() -> str:
    """The engine used when a protocol entry point gets ``engine=None``."""
    engine = os.environ.get(ENGINE_ENV, "vectorized")
    return engine if engine in ENGINES else "vectorized"


def resolve_engine(engine: str | None) -> str:
    """Validate an explicit ``engine`` argument (``None`` = environment)."""
    if engine is None:
        return default_engine()
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine
