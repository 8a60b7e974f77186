"""Conjugate gradients for Hermitian positive-definite operators.

The workhorse of lattice QCD: applied to the normal equations
``M^dag M x = M^dag b`` (or the even-odd Schur system).  The one
recurrence, :func:`_recurrence`, is a generator that yields each vector
it needs ``A`` applied to: :func:`cg` (and ``cg_spmd``) serve it one
:meth:`LinearOperator.apply_into` at a time, :func:`repro.solvers.block.
block_cg` serves one per column with a batched apply.  The hot loop is
allocation-free: the operator output and the axpy scratch are allocated
once up front and every vector update is an in-place ufunc.

Defense layers (see :mod:`repro.guard`):

* A NaN/Inf screen on every scalar reduction is *unconditional* — a
  non-finite residual means the solve is dead, and iterating to
  ``max_iter`` on NaNs (the historical behaviour) just burns flops.
* With ``guard`` at ``detect``/``heal`` the recurrence residual is
  periodically cross-checked against the *true* residual ``b - A x``
  (Chroma/tmLQCD-style reliable updates).  Drift beyond the policy bound
  raises :class:`~repro.guard.SDCDetected` (detect) or triggers a reliable
  update — residual replaced by the true one, search direction restarted,
  and if the iterate itself is corrupt, restart from the last verified
  iterate (heal).  Stagnation over the policy window raises
  :class:`~repro.guard.SolverStagnation` (detect) or earns one restart
  before raising (heal).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.guard.errors import NumericalFault, SDCDetected, SolverStagnation
from repro.guard.policy import GuardPolicy, resolve_policy
from repro.guard.solver import StagnationDetector
from repro.solvers.base import SolveResult
from repro.telemetry.instruments import record_solve
from repro.telemetry.spans import counter_event, span
from repro.telemetry.state import STATE
from repro.util.flops import cg_linalg_flops_per_iter

__all__ = ["cg"]


def cg(
    op: LinearOperator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    record_history: bool = True,
    guard: GuardPolicy | str | None = None,
) -> SolveResult:
    """Solve ``op x = b`` with plain CG.

    ``op`` must be Hermitian positive definite (use
    ``dirac.normal_op()`` for a Dirac matrix).  Convergence criterion is the
    recurrence residual ``|r_k| <= tol * |b|``; with ``guard`` enabled,
    convergence is additionally verified against the true residual.
    ``guard`` defaults to the ``REPRO_GUARD`` environment resolution.
    """
    with span("cg", cat="solver"):
        result = _cg_core(op, b, x0, tol, max_iter, record_history, guard)
    _record(result, b)
    return result


def _record(result: SolveResult, b: np.ndarray) -> None:
    """Per-solve counters of a CG-family solve on vectors shaped like ``b``."""
    if STATE.counting:
        record_solve(
            result.label,
            result.iterations,
            result.converged,
            result.residual,
            linalg_flops=result.iterations * cg_linalg_flops_per_iter(2 * b.size),
            restarts=len(result.guard_events),
        )


def _cg_core(
    op: LinearOperator,
    b: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    record_history: bool,
    guard: GuardPolicy | str | None,
    vdot=np.vdot,
    label: str = "cg",
    ap: np.ndarray | None = None,
    p: np.ndarray | None = None,
) -> SolveResult:
    """Serve :func:`_recurrence` one ``op(v, out=ap)`` at a time.  ``vdot``
    is the inner product of every reduction (``cg_spmd`` passes its
    rank-ordered allreduce); ``label`` tags the result, faults and events;
    ``ap`` is where ``A v`` lands and ``p`` the search-direction storage,
    the vector ``op`` is handed every iteration (both default: allocated).
    The iterate starts as a copy of ``x0``, which is never written."""
    t0 = time.perf_counter()
    applies0 = op.n_applies
    ap = np.empty_like(b) if ap is None else ap
    rec = _recurrence(
        b, x0, tol, max_iter, record_history, resolve_policy(guard), vdot, label,
        x=np.empty_like(b), r=np.empty_like(b),
        p=np.empty_like(b) if p is None else p, tmp=np.empty_like(b),
    )
    try:
        v = next(rec)
        while True:
            op(v, out=ap)
            v = rec.send(ap)
    except StopIteration as done:
        result = done.value
    applies = op.n_applies - applies0
    result.operator_applies = applies
    result.flops = applies * op.flops_per_apply
    result.wall_time = time.perf_counter() - t0
    return result


def _recurrence(
    b: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    record_history: bool,
    policy: GuardPolicy,
    vdot,
    label: str,
    *,
    x: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    tmp: np.ndarray,
):
    """The one guarded CG recurrence.  Yields each vector it needs ``A``
    applied to, is sent ``A v`` back (read before its next yield) and
    returns the :class:`SolveResult`; the apply count, flops and wall time
    are the driver's.

    Its vectors live in caller-owned storage shaped like ``b``, so a
    batched driver can hand out views of one block per kind: the iterate
    ``x`` (returned as ``result.x``; it starts as a copy of ``x0``, or is
    ``x0`` itself when the driver continues a solution in place), the
    residual ``r``, the search direction ``p`` and the scratch ``tmp``.
    ``tmp`` is read only between two yields, so recurrences that are
    advanced one at a time may share it."""

    def norm2(a: np.ndarray) -> float:
        return float(vdot(a, a).real)

    b_norm2 = norm2(b)
    if b_norm2 == 0.0:
        x.fill(0)
        return SolveResult(
            x=x, converged=True, iterations=0, residual=0.0, history=[0.0], label=label,
        )
    if not math.isfinite(b_norm2):
        raise NumericalFault("non-finite |b|^2", solver=label, iteration=0)

    if x0 is None:
        x.fill(0)
        np.copyto(r, b)
    else:
        if x0 is not x:
            np.copyto(x, x0)
        np.subtract(b, (yield x), out=r)

    np.copyto(p, r)
    r2 = norm2(r)
    if not math.isfinite(r2):
        raise NumericalFault("non-finite initial residual", solver=label, iteration=0)
    target2 = (tol * tol) * b_norm2
    history = [math.sqrt(r2 / b_norm2)] if record_history else []
    guard_events: list[dict] = []
    stagnation = StagnationDetector(policy.stagnation_window) if policy.enabled else None
    # Last *verified* iterate: the rollback point for corrupted heals.
    x_good = x.copy() if policy.heal else None
    restarts_left = 1
    last_finite = math.sqrt(r2 / b_norm2)

    def true_r2():
        np.subtract(b, (yield x), out=tmp)
        return norm2(tmp)

    def reliable_update():
        """Replace the recurrence residual by the true one; restart the
        search direction.  Restores the last verified iterate first when
        the current one is corrupt."""
        nonlocal r2
        rt2 = yield from true_r2()
        if not math.isfinite(rt2):
            if x_good is None:
                raise NumericalFault(
                    "iterate corrupt and no verified rollback point",
                    solver=label, iteration=it, last_residual=last_finite,
                )
            np.copyto(x, x_good)
            rt2 = yield from true_r2()
            if not math.isfinite(rt2):
                raise NumericalFault(
                    "true residual non-finite even at the verified iterate "
                    "(operator output corrupt)",
                    solver=label, iteration=it, last_residual=last_finite,
                )
        np.copyto(r, tmp)
        np.copyto(p, r)
        r2 = rt2
        if stagnation is not None:
            stagnation.reset()
        return rt2

    def heal_nonfinite(what: str, at: int):
        """A non-finite reduction: reliable update under ``heal``, else fail fast."""
        if not policy.heal:
            raise NumericalFault(what, solver=label, iteration=at, last_residual=last_finite)
        guard_events.append({"kind": "nonfinite", "iteration": it, "action": "reliable_update"})
        yield from reliable_update()

    it = 0
    converged = r2 <= target2
    while not converged and it < max_iter:
        ap = yield p
        pap = vdot(p, ap).real
        if not math.isfinite(pap):
            yield from heal_nonfinite("non-finite <p, A p>", it)
            it += 1  # the corrupted apply consumed this iteration
            converged = r2 <= target2
            continue
        if pap <= 0.0:
            # Operator is not positive definite (or roundoff at the limit).
            break
        alpha = r2 / pap
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        r2_new = norm2(r)
        if not math.isfinite(r2_new):
            yield from heal_nonfinite("non-finite residual norm", it + 1)
            it += 1
            converged = r2 <= target2
            continue
        beta = r2_new / r2
        p *= beta
        p += r
        r2 = r2_new
        last_finite = math.sqrt(r2 / b_norm2)
        it += 1
        if record_history:
            history.append(last_finite)
        if STATE.tracing:
            counter_event(f"{label}/residual", residual=last_finite)
        converged = r2 <= target2

        if policy.enabled and (
            converged
            or (policy.true_residual_interval > 0
                and it % policy.true_residual_interval == 0)
        ):
            rt2 = yield from true_r2()
            drifted = (not math.isfinite(rt2)) or rt2 > (
                policy.residual_drift_tol ** 2
            ) * max(r2, target2)
            if drifted:
                if not policy.heal:
                    raise SDCDetected(
                        f"true residual {math.sqrt(rt2 / b_norm2) if math.isfinite(rt2) else rt2!r} "
                        f"drifted from recurrence residual {last_finite:.3e}",
                        solver=label, iteration=it, last_residual=last_finite,
                    )
                guard_events.append(
                    {"kind": "residual_drift", "iteration": it,
                     "action": "reliable_update"}
                )
                yield from reliable_update()
                last_finite = math.sqrt(r2 / b_norm2)
                converged = r2 <= target2
            else:
                # Verified point: adopt the true residual as the recurrence
                # one would drift past it anyway, and snapshot the iterate.
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
                yield from reliable_update()
                converged = r2 <= target2
                continue
            raise SolverStagnation(
                f"no progress in {policy.stagnation_window} iterations",
                solver=label, iteration=it, last_residual=last_finite,
            )

    return SolveResult(
        x=x,
        converged=bool(converged),
        iterations=it,
        residual=math.sqrt(r2 / b_norm2),
        history=history,
        label=label,
        guard_events=guard_events,
    )
