"""High-level Dirac-equation drivers: ``M x = b`` for propagators.

One policy, stated once in :func:`_verify_and_refine`: solve an inner
Hermitian positive-definite system to ``tol``, verify against ``M``
itself, tighten by x0.01 for up to three rounds.  It runs on
``(nrhs, ...)`` blocks (nrhs = 1 is the single solve) and has two seams:

* a :class:`_System` — how ``M X = B`` maps onto the inner system: plain
  normal equations (:func:`_normal_system`, and the batched one in
  :mod:`repro.solvers.block`) or the even-odd Schur system
  (:func:`_even_odd_system`).  A new preconditioner is a new system.
* a *step* ``(rhs, X, tol) -> (X, [SolveResult per column])`` on
  ``system.op``: ``cg``, ``mixed_precision_cg`` or ``block_cg``.  ``X`` is
  ``None`` in the first round and the previous round's inner solutions
  after it; the step returns the new ones, which ``block_cg`` writes over
  ``X`` in place.  A new inner precision or width is a new step.

The front ends pick one of each and return full-lattice solutions with
verified residuals — the entry point the measurement code uses.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.operator import LinearOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import norm
from repro.solvers.base import SolveResult
from repro.solvers.cg import cg
from repro.solvers.mixed import mixed_precision_cg

__all__ = ["solve_wilson", "solve_wilson_eo"]


class _System(NamedTuple):
    """How ``M X = B`` maps onto the inner system a step solves; the
    callables take and return ``(nrhs, ...)`` blocks."""

    op: LinearOperator  # the Hermitian positive-definite inner operator
    prepare: Callable  # B -> right-hand sides of the inner system
    reconstruct: Callable  # (inner solutions, B) -> full-lattice X
    apply: Callable  # X -> M X, what the result is verified against


def _single(f: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Lift a one-field map to width-1 blocks (views, no copy)."""
    return lambda *blocks: f(*(block[0] for block in blocks))[None]


def _normal_system(dirac: WilsonDirac) -> _System:
    """Normal equations ``M^dag M x = M^dag b``, one field at a time."""
    return _System(
        dirac.normal_op(), _single(dirac.apply_dagger), lambda X, B: X, _single(dirac.apply)
    )


def _even_odd_system(eo: EvenOddWilson) -> _System:
    """Schur system on the even sites, odd sites by back-substitution."""
    schur = eo.schur_operator()
    return _System(
        schur.normal_op(),
        _single(lambda b: schur.apply_dagger(eo.prepare_rhs(b))),
        _single(eo.reconstruct),
        _single(eo.full_operator_apply),
    )


def _verify_and_refine(
    system: _System,
    step: Callable[
        [np.ndarray, np.ndarray | None, float], tuple[np.ndarray, list[SolveResult]]
    ],
    B: np.ndarray,
    tol: float,
) -> list[SolveResult]:
    """Solve ``M X[i] = B[i]`` to a *verified* relative residual ``tol``.

    Each round runs ``step`` at the current inner tolerance, continuing
    from the previous round's inner solutions, and recomputes every
    column's residual against ``M`` itself.  Rounds merge per column:
    counts, flops and wall time add, histories join without repeating the
    joint point, ``residual`` is the true one and ``converged`` means it
    reached ``10 * tol``.
    """
    rhs = system.prepare(B)
    b_norm = [norm(b) for b in B]
    results: list[SolveResult] = []
    X = None
    tol_n = tol
    for _ in range(3):
        X, steps = step(rhs, X, tol_n)
        if not results:
            results = steps
        else:
            for res, part in zip(results, steps):
                res.iterations += part.iterations
                res.operator_applies += part.operator_applies
                res.flops += part.flops
                res.wall_time += part.wall_time
                res.inner_iterations += part.inner_iterations
                res.history.extend(part.history[1:])
                res.guard_events.extend(part.guard_events)
        full = system.reconstruct(X, B)
        true_res = np.array(
            [norm(b - mx) / bn if bn else 0.0 for b, mx, bn in zip(B, system.apply(full), b_norm)]
        )
        if np.all(true_res <= tol):
            break
        tol_n *= 0.01
    for res, x, r in zip(results, full, true_res):
        res.x = x
        res.residual = float(r)
        res.converged = bool(r <= 10 * tol)
    return results


def _cg_step(op: LinearOperator, max_iter: int):
    """The fp64 single-column step: CG on ``op``, continued from ``X``."""

    def step(rhs, X, inner_tol):
        res = cg(op, rhs[0], x0=None if X is None else X[0], tol=inner_tol, max_iter=max_iter)
        return res.x[None], [res]

    return step


def solve_wilson(
    dirac: WilsonDirac,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 5000,
    mixed: bool = False,
) -> SolveResult:
    """Solve ``M x = b`` via the normal equations ``M^dag M x = M^dag b``.

    With ``mixed=True`` the inner iteration runs in fp32 (the production
    configuration; each refinement round restarts from zero, as
    :func:`mixed_precision_cg` takes no initial guess).  The returned
    residual is recomputed for ``M`` itself.
    """
    system = _normal_system(dirac)
    if mixed:
        nop32 = dirac.astype(np.complex64).normal_op()

        def step(rhs, X, inner_tol):
            res = mixed_precision_cg(system.op, nop32, rhs[0], tol=inner_tol, max_inner=max_iter)
            return res.x[None], [res]
    else:
        step = _cg_step(system.op, max_iter)
    (res,) = _verify_and_refine(system, step, b[None], tol)
    res.label = f"wilson_{res.label}"
    return res


def solve_wilson_eo(
    eo: EvenOddWilson,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> SolveResult:
    """Even-odd preconditioned solve: Schur system on even sites via CG on
    its normal equations, then odd-site reconstruction."""
    system = _even_odd_system(eo)
    (res,) = _verify_and_refine(system, _cg_step(system.op, max_iter), b[None], tol)
    res.label = "wilson_eo_cg"
    return res
