"""Shared utilities: deterministic RNG, timers, flop accounting, reports.

Every stochastic routine in the library takes an explicit
:class:`numpy.random.Generator`; :func:`ensure_rng` normalises the common
``None | int | Generator`` argument convention.
"""

from repro.util.rng import ensure_rng, spawn_rngs, rng_state, restore_rng
from repro.util.timing import Timer, paired, paired_ratio, timed_rounds
from repro.util.flops import FlopCounter, WILSON_DSLASH_FLOPS_PER_SITE
from repro.util.report import Table, format_si, format_bytes

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "rng_state",
    "restore_rng",
    "Timer",
    "paired",
    "paired_ratio",
    "timed_rounds",
    "FlopCounter",
    "WILSON_DSLASH_FLOPS_PER_SITE",
    "Table",
    "format_si",
    "format_bytes",
]
