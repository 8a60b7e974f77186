"""Multi-shift CG: all systems ``(A + sigma_i) x_i = b`` from one Krylov space.

Rational-approximation HMC needs the solution of the same Hermitian
system at many shifts.  The seed system ``A + sigma_min`` (the slowest to
converge) runs the one guarded recurrence of :mod:`repro.solvers.cg` —
its screens, the ``REPRO_GUARD`` policy, the driver's accounting and
``record_solve`` — and every other shift follows it as a companion
(Jegerlehner, hep-lat/9612014): the companions' residuals stay collinear
with the seed's, ``r_i = zeta_i r``, so one step moves each ``x_i`` and
``p_i`` from the seed's alpha and beta alone, with no apply of its own.

A reliable update (the guard's restart) breaks the collinearity; the
companions restart their recurrences from ``zeta_i r`` and whatever that
leaves shows in the verification: every shift's true residual against
``A + sigma_i`` is computed in one batched apply of the solutions, and a
shift still short of ``tol`` is finished by CG warm-started from its
``x_i``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.fields import norm2
from repro.solvers.base import SolveResult
from repro.solvers.cg import _cg_core, _record
from repro.telemetry.spans import span
from repro.util.flops import cg_linalg_flops_per_iter, vector_reals

__all__ = ["multishift_cg"]

#: Real flops per vector real of one companion step: ``x += a p`` (2),
#: ``p *= b`` (1), ``p += z r`` (2).
_STEP_FLOPS = 5
#: Real flops per vector real of one verified residual, after the apply:
#: ``R += sigma X`` (2), ``R -= b`` (1), ``|r|^2`` (2).
_VERIFY_FLOPS = 5


class _Companions:
    """The observer of the seed recurrence: rows ``1:`` of :attr:`x` solve
    ``(A + sigma_seed + rel[i]) x = b`` by the shifted zeta recurrence
    (row 0 is left for the seed's solution)."""

    def __init__(self, b: np.ndarray, rel: np.ndarray) -> None:
        self.rel = rel
        self.x = np.zeros((len(rel) + 1,) + b.shape, b.dtype)
        self.p = np.repeat(b[None], len(rel), axis=0)
        self.tmp = np.empty_like(self.p)
        self.zeta = self.zeta_prev = np.ones(len(rel))
        self.alpha_prev, self.beta_prev = 1.0, 0.0
        self._rows = (-1,) + (1,) * b.ndim  # a per-companion scalar against a block
        self.steps = 0

    def step(self, alpha: float, beta: float, r: np.ndarray) -> None:
        """Follow one seed step to the new seed residual ``r``:
        ``zeta_i^{n+1} = zeta_i^n zeta_i^{n-1} alpha_{n-1} / [alpha_n beta_{n-1}
        (zeta_i^{n-1} - zeta_i^n) + zeta_i^{n-1} alpha_{n-1} (1 + rel_i alpha_n)]``,
        a zeta that underflowed to zero freezing its companion."""
        z, zp = self.zeta, self.zeta_prev
        denom = alpha * self.beta_prev * (zp - z) + zp * self.alpha_prev * (1.0 + self.rel * alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_next = np.where(denom != 0.0, z * zp * self.alpha_prev / denom, 0.0)
            ratio = np.where(z != 0.0, z_next / z, 0.0)
        x, p, tmp = self.x[1:], self.p, self.tmp
        np.multiply(p, (alpha * ratio).reshape(self._rows), out=tmp)
        x += tmp
        p *= (beta * ratio**2).reshape(self._rows)
        np.multiply(r, z_next.reshape(self._rows), out=tmp)
        p += tmp
        self.zeta_prev, self.zeta = z, z_next
        self.alpha_prev, self.beta_prev = alpha, beta
        self.steps += 1

    def restart(self, r: np.ndarray) -> None:
        """The seed restarted its search direction from ``r``: every companion
        restarts from ``zeta_i r`` (with ``beta = 0`` the next zeta is
        ``zeta_i / (1 + rel_i alpha)``, whatever ``alpha_prev``)."""
        self.zeta_prev = self.zeta
        self.alpha_prev, self.beta_prev = 1.0, 0.0
        np.multiply(r, self.zeta.reshape(self._rows), out=self.p)


def multishift_cg(
    op: LinearOperator,
    b: np.ndarray,
    shifts: list[float],
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> list[SolveResult]:
    """Solve ``(op + sigma_i) x_i = b`` for every ``sigma_i >= 0`` at once.

    ``op`` must be Hermitian positive definite so every shifted system is
    too; the guard resolves from ``REPRO_GUARD``, as :func:`~repro.solvers.
    cg.cg`'s default does.  Returns one :class:`SolveResult` per shift, in
    the order given: ``residual`` is the true relative residual against
    ``op + sigma_i`` and ``converged`` means it is at most ``tol``;
    ``iterations``, ``wall_time``, ``history`` and ``guard_events`` are the
    seed's, plus those of the shift's finishing solve if it needed one;
    ``operator_applies`` and ``flops`` are the whole call's.
    With one shift the solution, iterations and history are bit for bit
    ``cg`` on ``op + sigma``.
    """
    if not len(shifts):
        raise ValueError("need at least one shift")
    if any(s < 0 for s in shifts):
        raise ValueError(f"shifts must be non-negative, got {list(shifts)}")
    order = np.argsort(shifts, kind="stable")  # the smallest shift is the seed
    sig = np.asarray(shifts, dtype=float)[order]
    applies0 = op.n_applies
    companions = _Companions(b, sig[1:] - sig[0])
    with span("multishift_cg", cat="solver"):
        seed = _cg_core(op, b, None, tol, max_iter, True, None, label="multishift_cg",
                        shift=sig[0], observer=companions)
        X = companions.x
        X[0] = seed.x
        results = [replace(seed, x=x, history=list(seed.history),
                           guard_events=list(seed.guard_events)) for x in X]
        rows, b_norm2 = list(range(len(sig))), norm2(b)
        cg_iters, verified = seed.iterations, 0
        for attempt in range(3):
            # |b - (A + sigma_i) x_i| / |b| of the rows, from one batched apply.
            R = op.apply_batch(X[rows])
            R += sig[rows].reshape(companions._rows) * X[rows]
            R -= b
            for i, r in zip(rows, R):
                results[i].residual = math.sqrt(norm2(r) / b_norm2) if b_norm2 else 0.0
            verified += len(rows)
            rows = [i for i in rows if results[i].residual > tol]
            if not rows or not seed.converged or attempt == 2:
                break
            for i in rows:  # finish from x_i on A + sigma_i
                part = _cg_core(op, b, X[i], tol, max_iter, True, None,
                                label="multishift_cg", shift=sig[i])
                X[i], res = part.x, results[i]
                cg_iters += part.iterations
                res.iterations += part.iterations
                res.wall_time += part.wall_time
                res.history += part.history[1:]
                res.guard_events += part.guard_events
    applies = op.n_applies - applies0
    for res in results:
        res.converged = res.residual <= tol
        res.operator_applies = applies
        res.flops = applies * op.flops_per_apply
    # The seed's and the finishing solves' CG steps, the companions' and the verification.
    reals = vector_reals(b)
    companion_steps = (len(sig) - 1) * companions.steps
    _record(results[0], b, cg_iters * cg_linalg_flops_per_iter(reals)
            + (_STEP_FLOPS * companion_steps + _VERIFY_FLOPS * verified) * reals)
    return [results[pos] for pos in np.argsort(order)]
