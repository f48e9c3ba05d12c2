"""Verification strategies: the paper's group-testing view of match checks.

The paper models optimized match verification as a group-testing problem
(false candidate matches are the "defective" items; one transmitted hash
asks "are all matches in this group correct?").
:mod:`repro.grouptesting.strategies` describes the concrete strategies
(trivial per-candidate hashes, single-batch grouping, adaptive two- and
three-batch schemes with salvage) as data, so the protocol's one
verification exchange (:meth:`repro.core.protocol.LaneChannels.verify`)
can execute any of them.  The extension
of confirmed matches, modelled in the paper as Ulam's
searching-with-liars game, is :mod:`repro.core.refine`.
"""

from repro.grouptesting.strategies import (
    BatchSpec,
    BatchMode,
    BatchScope,
    VerificationStrategy,
    make_strategy,
    strategy_names,
)

__all__ = [
    "BatchMode",
    "BatchScope",
    "BatchSpec",
    "VerificationStrategy",
    "make_strategy",
    "strategy_names",
]
