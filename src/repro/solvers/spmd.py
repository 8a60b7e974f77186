"""SPMD conjugate gradients: the solver as the paper's machines ran it.

:func:`cg_spmd` runs the one guarded recurrence of :mod:`repro.solvers.cg`
— fail-fast screens, reliable updates, rollback and all — on ``M^dag M``
with a single thing swapped: the inner product.  Every reduction is
per-rank partial sums combined through the communicator's
``allreduce_sum``, so the communication trace of a solve contains the
*complete* production pattern: two halo exchanges per normal-operator
application plus two global reductions per iteration, the data the
strong-scaling model (E3) charges for.  The rank-ordered reduction keeps
the iterates bit-identical across backends, and on a (1,1,1,1) grid to
``cg(WilsonDirac.normal_op())``.  It is allocation-free: rank block slices
are computed once and the partials land in one preallocated buffer.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.operator import NormalOperator
from repro.fields import norm
from repro.guard.policy import GuardPolicy
from repro.solvers.base import SolveResult
from repro.solvers.cg import _cg_core, _record
from repro.telemetry.spans import span

__all__ = ["cg_spmd"]


class _SpmdReducer:
    """Per-rank partial inner products through one preallocated buffer."""

    def __init__(self, comm, decomp) -> None:
        self.comm = comm
        self._slices = [decomp.block_slices(r) for r in comm.grid.all_ranks()]
        self._partials = np.empty(comm.nranks, dtype=np.complex128)

    def vdot(self, a: np.ndarray, b: np.ndarray) -> complex:
        """``sum_r <a_r, b_r>`` reduced in rank order (backend-independent)."""
        for r, idx in enumerate(self._slices):
            self._partials[r] = np.vdot(a[idx], b[idx])
        return complex(self.comm.allreduce_sum(self._partials))


def cg_spmd(
    op: DecomposedWilsonDirac,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 2000,
    guard: GuardPolicy | str | None = None,
) -> SolveResult:
    """Solve ``M x = b`` via CG on ``M^dag M`` with SPMD reductions.

    ``op`` must be a :class:`DecomposedWilsonDirac`; its communicator
    records halos (from the operator) and collectives (from this driver).
    ``guard`` defaults to the ``REPRO_GUARD`` environment resolution.
    ``operator_applies`` and ``flops`` count the normal operator, as
    :func:`~repro.solvers.cg.cg` on ``M^dag M`` does; ``residual`` is the
    true one against ``M``.
    """
    t0 = time.perf_counter()
    with span("cg_spmd", cat="solver"):
        reduce = _SpmdReducer(op.comm, op.decomp)
        result = _cg_core(
            NormalOperator(op), op.apply_dagger(b), None, tol, max_iter, True,
            guard, vdot=reduce.vdot, label="cg_spmd",
        )
        b_norm2 = reduce.vdot(b, b).real
        if b_norm2 > 0.0:
            result.residual = norm(b - op.apply(result.x)) / math.sqrt(b_norm2)
        result.wall_time = time.perf_counter() - t0
    _record(result, b)
    return result
