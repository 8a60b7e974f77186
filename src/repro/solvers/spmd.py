"""SPMD conjugate gradients: the solver as the paper's machines ran it.

Identical arithmetic to :func:`repro.solvers.cg`, but every inner product
is computed as per-rank partial sums combined through the communicator's
``allreduce_sum`` — so the communication trace of a solve contains the
*complete* production pattern: two halo exchanges per normal-operator
application plus two global reductions per iteration, the data the
strong-scaling model (E3) charges for.  With a :class:`~repro.comm.ShmComm`
the halo exchanges and stencils run rank-parallel for real; the in-order
reduction keeps the iterates bit-identical across backends.

The reduction path is allocation-free: rank block slices are computed once
and the per-rank partials land in one preallocated buffer, so the two
global sums per iteration add no garbage pressure to the hot loop.

Defense mirrors :func:`repro.solvers.cg`: unconditional NaN/Inf fail-fast
on every reduction, and with ``guard`` at ``detect``/``heal`` a periodic
true-residual replay of the normal equations (``M^dag b - M^dag M x``)
with reliable updates and restart-from-last-verified-iterate.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.operator import NormalOperator
from repro.fields import norm
from repro.guard.errors import NumericalFault, SDCDetected, SolverStagnation
from repro.guard.policy import GuardPolicy, resolve_policy
from repro.guard.solver import StagnationDetector
from repro.solvers.base import SolveResult
from repro.telemetry.instruments import record_solve
from repro.telemetry.spans import counter_event, span
from repro.telemetry.state import STATE
from repro.util.flops import cg_linalg_flops_per_iter

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
    """
    with span("cg_spmd", cat="solver"):
        result = _cg_spmd_core(op, b, tol, max_iter, guard)
    if STATE.counting:
        record_solve(
            "cg_spmd",
            result.iterations,
            result.converged,
            result.residual,
            linalg_flops=result.iterations * cg_linalg_flops_per_iter(2 * b.size),
            restarts=len(result.guard_events),
        )
    return result


def _cg_spmd_core(
    op: DecomposedWilsonDirac,
    b: np.ndarray,
    tol: float,
    max_iter: int,
    guard: GuardPolicy | str | None,
) -> SolveResult:
    t0 = time.perf_counter()
    policy = resolve_policy(guard)
    reduce = _SpmdReducer(op.comm, op.decomp)
    nop = NormalOperator(op)
    applies0 = op.n_applies

    rhs = op.apply_dagger(b)
    b_norm2 = reduce.vdot(rhs, rhs).real
    if b_norm2 == 0.0:
        return SolveResult(
            x=np.zeros_like(b), converged=True, iterations=0, residual=0.0,
            history=[0.0], label="cg_spmd",
        )
    if not math.isfinite(b_norm2):
        raise NumericalFault("non-finite |M^dag b|^2", solver="cg_spmd", iteration=0)

    x = np.zeros_like(b)
    r = rhs.copy()
    p = r.copy()
    scratch = np.empty_like(r)
    ap = np.empty_like(r)
    r2 = reduce.vdot(r, r).real
    target2 = (tol * tol) * b_norm2
    history = [np.sqrt(r2 / b_norm2)]
    guard_events: list[dict] = []
    stagnation = StagnationDetector(policy.stagnation_window) if policy.enabled else None
    x_good = x.copy() if policy.heal else None
    restarts_left = 1
    last_finite = math.sqrt(r2 / b_norm2)

    def reliable_update() -> None:
        """Reliable update on the normal equations: r <- M^dag b - M^dag M x,
        p <- r, with rollback to the last verified iterate if x is corrupt."""
        nonlocal r2
        rt = rhs - nop(x)
        rt2 = reduce.vdot(rt, rt).real
        if not math.isfinite(rt2):
            if x_good is None:
                raise NumericalFault(
                    "iterate corrupt and no verified rollback point",
                    solver="cg_spmd", iteration=it, last_residual=last_finite,
                )
            np.copyto(x, x_good)
            rt = rhs - nop(x)
            rt2 = reduce.vdot(rt, rt).real
            if not math.isfinite(rt2):
                raise NumericalFault(
                    "true residual non-finite even at the verified iterate",
                    solver="cg_spmd", iteration=it, last_residual=last_finite,
                )
        np.copyto(r, rt)
        np.copyto(p, r)
        r2 = rt2
        if stagnation is not None:
            stagnation.reset()

    it = 0
    converged = r2 <= target2
    while not converged and it < max_iter:
        nop(p, out=ap)
        pap = reduce.vdot(p, ap).real
        if not math.isfinite(pap):
            if policy.heal:
                guard_events.append(
                    {"kind": "nonfinite", "iteration": it, "action": "reliable_update"}
                )
                reliable_update()
                it += 1
                converged = r2 <= target2
                continue
            raise NumericalFault(
                "non-finite <p, A p>", solver="cg_spmd",
                iteration=it, last_residual=last_finite,
            )
        if pap <= 0.0:
            break
        alpha = r2 / pap
        np.multiply(p, alpha, out=scratch)
        x += scratch
        np.multiply(ap, alpha, out=scratch)
        r -= scratch
        r2_new = reduce.vdot(r, r).real
        if not math.isfinite(r2_new):
            if policy.heal:
                guard_events.append(
                    {"kind": "nonfinite", "iteration": it, "action": "reliable_update"}
                )
                reliable_update()
                it += 1
                converged = r2 <= target2
                continue
            raise NumericalFault(
                "non-finite residual norm", solver="cg_spmd",
                iteration=it + 1, last_residual=last_finite,
            )
        beta = r2_new / r2
        p *= beta
        p += r
        r2 = r2_new
        last_finite = math.sqrt(r2 / b_norm2)
        it += 1
        history.append(float(np.sqrt(r2 / b_norm2)))
        if STATE.tracing:
            counter_event("cg_spmd/residual", residual=last_finite)
        converged = r2 <= target2

        if policy.enabled and (
            converged
            or (policy.true_residual_interval > 0
                and it % policy.true_residual_interval == 0)
        ):
            rt = rhs - nop(x)
            rt2 = reduce.vdot(rt, rt).real
            drifted = (not math.isfinite(rt2)) or rt2 > (
                policy.residual_drift_tol ** 2
            ) * max(r2, target2)
            if drifted:
                if not policy.heal:
                    raise SDCDetected(
                        "true residual drifted from recurrence residual",
                        solver="cg_spmd", iteration=it, last_residual=last_finite,
                    )
                guard_events.append(
                    {"kind": "residual_drift", "iteration": it,
                     "action": "reliable_update"}
                )
                reliable_update()
                last_finite = math.sqrt(r2 / b_norm2)
                converged = r2 <= target2
            else:
                if x_good is not None:
                    np.copyto(x_good, x)
                if converged:
                    r2 = rt2
                    last_finite = math.sqrt(r2 / b_norm2)

        if stagnation is not None and not converged and stagnation.update(r2):
            if policy.heal and restarts_left > 0:
                restarts_left -= 1
                guard_events.append(
                    {"kind": "stagnation", "iteration": it, "action": "restart"}
                )
                reliable_update()
                converged = r2 <= target2
                continue
            raise SolverStagnation(
                f"no progress in {policy.stagnation_window} iterations",
                solver="cg_spmd", iteration=it, last_residual=last_finite,
            )

    applies = op.n_applies - applies0
    true_res = norm(b - op.apply(x)) / np.sqrt(reduce.vdot(b, b).real)
    return SolveResult(
        x=x,
        converged=bool(converged),
        iterations=it,
        residual=float(true_res),
        history=history,
        operator_applies=applies,
        flops=applies * op.flops_per_apply,
        wall_time=time.perf_counter() - t0,
        label="cg_spmd",
        guard_events=guard_events,
    )
