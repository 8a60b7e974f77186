"""The four workloads, by name."""

from .hmc_stream import HmcStream
from .serve_propagator import ServePropagator
from .solve_ladder import SolveLadder
from .spmd_dslash import SpmdDslash

__all__ = ["WORKLOADS"]

WORKLOADS = {
    w.name: w for w in (ServePropagator, SolveLadder, SpmdDslash, HmcStream)
}
