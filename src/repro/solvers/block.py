"""Multi-RHS CG: one batched operator apply drives every column's recurrence.

``block_cg`` solves ``op X[i] = B[i]`` for an ``(nrhs, ...)`` block of
right-hand sides.  Each column keeps its *own* scalar CG recurrence
(``alpha_i``, ``beta_i``, per-column residual), but the one expensive
step per iteration — the operator application — goes through
:meth:`~repro.dirac.operator.LinearOperator.apply_batch`, so links and
gather tables are streamed once per iteration instead of once per RHS.
Because the recurrences are per-column and the batched apply is
bit-identical per column to the single-RHS apply, every column's iterate
sequence is **bit-for-bit identical** to running plain :func:`repro.
solvers.cg.cg` (guards off) on that column alone — asserted by the
tier-1 parity tests.  This is the "multiple independent systems, shared
operator traffic" scheme production multi-RHS solvers use for
propagator workloads (Chroma/tmLQCD class), as opposed to a
shared-search-space block-Krylov method that would change the iterates.

Convergence is masked per column: a converged (or breakdown-stalled)
column freezes and the remaining active columns are *compacted* into a
smaller batch, so late iterations on a nearly-done block don't pay full
block bandwidth.  Compaction cannot change any bit of the surviving
columns — batched applies are column-independent.

``solve_wilson_batch`` is the propagator front end: the verify-and-refine
driver of :mod:`repro.solvers.wilson_solve` on the *batched* normal
system (one ``apply_dagger_batch`` prepares every right-hand side, one
``apply_batch_into`` verifies every column) with ``block_cg`` as its step.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.fields import norm2
from repro.guard.errors import NumericalFault
from repro.solvers.base import SolveResult
from repro.solvers.cg import _record
from repro.solvers.wilson_solve import _System, _verify_and_refine
from repro.telemetry.spans import span

__all__ = ["block_cg", "solve_wilson_batch"]


def block_cg(
    op: LinearOperator,
    B: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    record_history: bool = True,
) -> list[SolveResult]:
    """Solve ``op X[i] = B[i]`` for every column of an (nrhs, ...) block.

    ``op`` must be Hermitian positive definite.  Returns one
    :class:`SolveResult` per column, each bit-identical (iterates,
    residual history, iteration count) to a guard-off :func:`~repro.
    solvers.cg.cg` on that column.
    """
    B = np.asarray(B)
    if B.ndim < 2:
        raise ValueError(f"block_cg needs an (nrhs, ...) block, got shape {B.shape}")
    with span("block_cg", cat="solver"):
        results = _block_cg_core(op, B, x0, tol, max_iter, record_history)
    for res in results:
        _record(res, B[0])
    return results


def _block_cg_core(
    op: LinearOperator,
    B: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    record_history: bool,
) -> list[SolveResult]:
    label = "block_cg"
    t0 = time.perf_counter()
    nrhs = B.shape[0]
    applies0 = op.n_applies

    b_norm2 = np.empty(nrhs)
    for i in range(nrhs):
        b_norm2[i] = norm2(B[i])
        if not math.isfinite(b_norm2[i]):
            raise NumericalFault(
                f"non-finite |b|^2 in column {i}", solver=label, iteration=0
            )

    if x0 is None:
        X = np.zeros_like(B)
        R = B.copy()
    else:
        X = x0.astype(B.dtype, copy=True)
        R = np.empty_like(B)
        op.apply_batch(X, R)
        np.subtract(B, R, out=R)

    P = R.copy()
    AP = np.empty_like(B)
    tmp = np.empty_like(B[0])

    r2 = np.empty(nrhs)
    for i in range(nrhs):
        r2[i] = norm2(R[i])
        if not math.isfinite(r2[i]):
            raise NumericalFault(
                f"non-finite initial residual in column {i}", solver=label, iteration=0
            )
    target2 = (tol * tol) * b_norm2

    histories: list[list[float]] = [[] for _ in range(nrhs)]
    if record_history:
        for i in range(nrhs):
            if b_norm2[i] > 0.0:
                histories[i].append(math.sqrt(r2[i] / b_norm2[i]))
            else:
                histories[i].append(0.0)

    iters = [0] * nrhs
    converged = [bool(b_norm2[i] == 0.0 or r2[i] <= target2[i]) for i in range(nrhs)]
    active = [i for i in range(nrhs) if not converged[i]]
    # Compaction scratch, grown lazily when the active set first shrinks.
    pack_p: np.ndarray | None = None
    pack_ap: np.ndarray | None = None

    it = 0
    while active and it < max_iter:
        k = len(active)
        if k == nrhs:
            pa_block, ap_block = P, AP
            op.apply_batch(P, AP)
        else:
            if pack_p is None:
                pack_p = np.empty_like(P)
                pack_ap = np.empty_like(P)
            pa_block, ap_block = pack_p[:k], pack_ap[:k]
            for j, i in enumerate(active):
                np.copyto(pa_block[j], P[i])
            op.apply_batch(pa_block, ap_block)

        still_active = []
        for j, i in enumerate(active):
            pap = np.vdot(pa_block[j], ap_block[j]).real
            if not math.isfinite(pap):
                raise NumericalFault(
                    f"non-finite <p, A p> in column {i}",
                    solver=label, iteration=it,
                )
            if pap <= 0.0:
                # Loss of positive definiteness (roundoff at the limit):
                # freeze this column exactly where sequential CG breaks.
                continue
            alpha = r2[i] / pap
            np.multiply(pa_block[j], alpha, out=tmp)
            X[i] += tmp
            np.multiply(ap_block[j], alpha, out=tmp)
            R[i] -= tmp
            r2_new = norm2(R[i])
            if not math.isfinite(r2_new):
                raise NumericalFault(
                    f"non-finite residual norm in column {i}",
                    solver=label, iteration=it + 1,
                )
            beta = r2_new / r2[i]
            P[i] *= beta
            P[i] += R[i]
            r2[i] = r2_new
            iters[i] = it + 1
            if record_history:
                histories[i].append(math.sqrt(r2[i] / b_norm2[i]))
            if r2[i] <= target2[i]:
                converged[i] = True
            else:
                still_active.append(i)
        active = still_active
        it += 1

    elapsed = time.perf_counter() - t0
    total_applies = op.n_applies - applies0
    # Attribute shared-batch applies to the columns that consumed them;
    # the residue (columns riding a batch past their own convergence is
    # impossible here — compaction drops them) is the x0 seed apply.
    seed = 1 if x0 is not None else 0
    results = []
    for i in range(nrhs):
        applies = iters[i] + seed if total_applies else 0
        residual = (
            math.sqrt(r2[i] / b_norm2[i]) if b_norm2[i] > 0.0 else 0.0
        )
        results.append(
            SolveResult(
                x=X[i].copy(),
                converged=bool(converged[i]),
                iterations=iters[i],
                residual=residual,
                history=histories[i],
                operator_applies=applies,
                flops=applies * op.flops_per_apply,
                wall_time=elapsed / nrhs,
                label=label,
            )
        )
    return results


def solve_wilson_batch(
    dirac,
    B: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> list[SolveResult]:
    """Solve ``M X[i] = B[i]`` for a block of sources (propagator columns).

    Normal equations driven by :func:`block_cg`: one batched ``M^dag``
    prepares every right-hand side, the block solve shares link traffic
    across columns, and each column's true residual against ``M`` itself
    is verified by one batched ``M`` — the verify-and-refine policy of
    :mod:`repro.solvers.wilson_solve` on the batched normal system.
    """
    B = np.asarray(B)
    verify = np.empty_like(B)
    system = _System(
        op=dirac.normal_op(),
        prepare=dirac.apply_dagger_batch,
        reconstruct=lambda X, B: X,
        apply=lambda X: dirac.apply_batch_into(X, verify),
    )

    def step(rhs, x0, inner_tol):
        return block_cg(system.op, rhs, x0=x0, tol=inner_tol, max_iter=max_iter)

    results = _verify_and_refine(system, step, B, tol)
    for res in results:
        res.label = f"wilson_{res.label}"
    return results
