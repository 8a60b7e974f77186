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
``cg(WilsonDirac.normal_op())``.

Where the vectors live depends on the backend.  On a process backend
(``shm``, ``tcp``) a complex128 solve runs on the ranks (:func:`rank_cg`,
one ``solve`` command): each rank keeps its part of every vector — the
search direction in the interior of its fermion halo block, the first
hop's output in a second halo block, ``x``, ``r`` and the scratch in its
own memory — and only ``b`` in, ``x`` and ``M x`` out and two scalars per
iteration cross the control link.  With ``VirtualComm``, or for another
dtype, the same recurrence runs on the master over the full vectors,
each reduction summing per-rank slices.  The closing true residual
``|b - M x| / |b|`` is formed on the master from the full ``M x`` either
way.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.dirac.decomposed import DecomposedWilsonDirac, _copy_gamma5
from repro.dirac.operator import LinearOperator, NormalOperator
from repro.fields import norm
from repro.guard.policy import GuardPolicy, resolve_policy
from repro.kernels.fused import _gamma5, interior_slices
from repro.solvers.base import SolveResult
from repro.solvers.cg import _cg_core, _record
from repro.telemetry.spans import span

__all__ = ["cg_spmd", "rank_cg"]


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
        if op.rank_resident and b.dtype == np.complex128:
            result, b_norm2, mx = op.cg_on_ranks(b, tol, max_iter, resolve_policy(guard))
        else:
            reduce = _SpmdReducer(op.comm, op.decomp)
            result = _cg_core(
                NormalOperator(op), op.apply_dagger(b), None, tol, max_iter, True,
                guard, vdot=reduce.vdot, label="cg_spmd",
            )
            b_norm2 = reduce.vdot(b, b).real
            mx = op.apply(result.x) if b_norm2 > 0.0 else None
        if b_norm2 > 0.0:
            result.residual = norm(b - mx) / math.sqrt(b_norm2)
        result.wall_time = time.perf_counter() - t0
    _record(result, b)
    return result


class _RankNormal(LinearOperator):
    """``M^dag M`` on one rank's blocks: ``M`` then ``gamma5 M gamma5``.

    The search direction ``p``, the vector of every iteration, is read
    where it lives, in the interior of the fermion halo block; the iterate
    ``x`` of a guard's true residual is copied into the second halo block
    first.  The first hop writes the interior of that block, where gamma5
    negates it in place for the second; the second writes the output,
    negated in place too — the values of
    :meth:`DecomposedWilsonDirac.apply_into` and ``apply_dagger_into``.
    """

    def __init__(self, p: np.ndarray, h: np.ndarray, dslash, keys) -> None:
        super().__init__()
        self._p, self._h, self._dslash, self._keys = p, h, dslash, keys

    def apply_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        psi_key, hop_key = self._keys
        if v is self._p:
            self._dslash(psi_key, self._h)
        else:
            np.copyto(self._h, v)
            self._dslash(hop_key, out)
            np.copyto(self._h, out)
        _gamma5(self._h)
        self._dslash(hop_key, out)
        return _gamma5(out)


def rank_cg(ex, keys: tuple, width: int, phases, diag: float, solve: tuple):
    """One rank's side of :func:`cg_spmd`: the ``solve`` command of
    :class:`~repro.comm.executor.RankExecutor` ``ex``
    (:meth:`~repro.comm.pool.RankPoolComm.run_cg` is the master's side).

    ``b`` is in the interior of the fermion halo block, which then holds
    the search direction.  Runs ``M^dag b``, the recurrence on
    ``M^dag M`` (every inner product one
    :meth:`~repro.comm.executor.RankExecutor.allreduce`), the closing
    ``|b|^2`` and, when it is not zero, ``M x``; leaves ``x`` in the
    interior of the fermion block and ``M x`` in the output block.  Every
    exchange is bracketed by a barrier of the ranks: with no command
    between two applies, that is what keeps a neighbour's faces still
    while they are read.  Returns ``(result, hops)``, the result without
    ``x`` and the applies since the last sum.
    """
    psi_key, out_key, hop_key, u_key = keys
    tol, max_iter, policy = solve
    inner = interior_slices(width)
    p, h = ex.blocks[psi_key][inner], ex.blocks[hop_key][inner]
    out = ex.blocks[out_key]
    hops = 0

    def dslash(src_key: str, dst: np.ndarray) -> None:
        nonlocal hops
        ex.peers.barrier()
        ex.dslash(src_key, dst, u_key, width, phases, diag)
        ex.peers.barrier()
        hops += 1

    def reduce(partial: complex) -> complex:
        nonlocal hops
        total = ex.allreduce(partial, hops)
        hops = 0
        return complex(total)

    def vdot(a: np.ndarray, b: np.ndarray) -> complex:
        return reduce(np.vdot(a, b))

    b_partial = np.vdot(p, p)  # |b|^2, summed last as on the master
    _gamma5(p)
    dslash(psi_key, out)
    rhs = np.empty_like(out)
    _copy_gamma5(rhs, out)
    result = _cg_core(
        _RankNormal(p, h, dslash, (psi_key, hop_key)), rhs, None, tol, max_iter, True,
        policy, vdot=vdot, label="cg_spmd", ap=out, p=p,
    )
    b_norm2 = reduce(b_partial).real
    np.copyto(p, result.x)
    if b_norm2 > 0.0:
        dslash(psi_key, out)
    result.x = None
    return result, hops
