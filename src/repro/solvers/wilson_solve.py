"""High-level Dirac-equation drivers: ``M x = b`` for propagators.

One policy, stated once in :func:`_verify_and_refine`: solve an inner
Hermitian positive-definite system to ``tol``, verify against ``M``
itself, tighten by x0.01 for up to three rounds.  It runs on
``(nrhs, ...)`` blocks (nrhs = 1 is the single solve) and has two seams:

* a :class:`_System` — how ``M X = B`` maps onto the inner system: the
  plain normal equations (:func:`_normal_system`) or the even-odd Schur
  system (:func:`_even_odd_system`).  Both run on blocks through their
  operators' batch forms.  A new preconditioner is a new system.
* a *step* ``(rhs, X, tol) -> (X, [SolveResult per column])`` on
  ``system.op``: ``cg`` or ``mixed_precision_cg`` on width-1 blocks, or
  ``block_cg`` on any width, which continues ``X`` (``None`` in the first
  round) in place.  A new inner precision or width is a new step.
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
    reconstruct: Callable | None  # (inner solutions, B) -> full X; None: they are X
    apply: Callable  # X -> M X, what the result is verified against
    label: str  # prefix of the results' labels


def _normal_system(dirac: WilsonDirac) -> _System:
    """Normal equations ``M^dag M X = M^dag B``: one counted batched ``M^dag``
    prepares every right-hand side, one batched ``M`` verifies every column."""
    return _System(
        dirac.normal_op(),
        dirac.apply_dagger_batch,
        None,
        lambda X: dirac.apply_batch_into(X, np.empty_like(X)),
        "wilson",
    )


def _even_odd_system(eo: EvenOddWilson) -> _System:
    """Schur system on the even sites, odd sites by back-substitution: its
    right-hand sides and solutions are columns of even-site planes."""
    schur = eo.schur_operator()

    def prepare(B):
        b_hat = eo.prepare_rhs(B)
        return schur.apply_planes_into(b_hat, np.empty_like(b_hat), dagger=True)

    return _System(schur.normal_op(), prepare, eo.reconstruct, eo.full_operator_apply, "wilson_eo")


def _verify_and_refine(
    system: _System,
    step: Callable[
        [np.ndarray, np.ndarray | None, float], tuple[np.ndarray, list[SolveResult]]
    ],
    B: np.ndarray,
    tol: float,
) -> list[SolveResult]:
    """Solve ``M X[i] = B[i]`` to a *verified* relative residual ``tol``.

    Each round runs ``step`` at the current inner tolerance on the columns
    still short of ``tol`` — kept as the leading rows of every block, so
    each column is refined as its own solve would be — and recomputes
    their residuals against ``M`` itself.  Rounds merge per column: counts,
    flops and wall time add, histories join without repeating the joint
    point, ``residual`` is the true one and ``converged`` means it reached
    ``10 * tol``.
    """
    rhs = system.prepare(B)
    b_norm = [norm(b) for b in B]
    order = np.arange(len(B))  # the column in each row of rhs, X and full
    true_res = np.empty(len(B))
    results: list[SolveResult] = [None] * len(B)
    X, n, tol_n = None, len(B), tol  # rows [:n] are short of tol
    for _ in range(3):
        X_n, steps = step(rhs[:n], None if X is None else X[:n], tol_n)
        X = X_n if n == len(B) else X  # a narrower step continued X[:n] in place
        for col, part in zip(order, steps):
            res = results[col]
            if res is None:
                results[col] = part
                continue
            for count in ("iterations", "operator_applies", "flops", "wall_time",
                          "inner_iterations"):
                setattr(res, count, getattr(res, count) + getattr(part, count))
            res.history.extend(part.history[1:])
            res.guard_events.extend(part.guard_events)
        if system.reconstruct is None:
            full = X
        elif n == len(B):
            full = system.reconstruct(X, B)
        else:
            full[:n] = system.reconstruct(X[:n], B[order[:n]])
        true_res[:n] = [
            norm(B[col] - mx) / b_norm[col] if b_norm[col] else 0.0
            for col, mx in zip(order, system.apply(full[:n]))
        ]
        short = true_res[:n] > tol
        if not short.any():
            break
        tol_n *= 0.01
        if not short.all():
            perm = np.argsort(~short, kind="stable")
            for block in (rhs, X, order, true_res) + (() if full is X else (full,)):
                block[:n] = block[:n][perm]
            n = int(short.sum())
    for x, col, r in zip(full, order, true_res):
        res = results[col]
        res.x = x
        res.residual = float(r)
        res.converged = bool(r <= 10 * tol)
        res.label = f"{system.label}_{res.label}"
    return results


def _width_1(solve: Callable[[np.ndarray, np.ndarray | None, float], SolveResult]):
    """The step of ``solve(b, x0, tol)`` on width-1 blocks."""

    def step(rhs, X, inner_tol):
        res = solve(rhs[0], None if X is None else X[0], inner_tol)
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
        step = _width_1(
            lambda b, x0, t: mixed_precision_cg(system.op, nop32, b, tol=t, max_inner=max_iter)
        )
    else:
        step = _width_1(lambda b, x0, t: cg(system.op, b, x0=x0, tol=t, max_iter=max_iter))
    return _verify_and_refine(system, step, b[None], tol)[0]


def solve_wilson_eo(
    eo: EvenOddWilson,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> SolveResult:
    """Even-odd preconditioned solve: Schur system on even sites via CG on
    its normal equations, then odd-site reconstruction."""
    system = _even_odd_system(eo)
    step = _width_1(lambda b, x0, t: cg(system.op, b, x0=x0, tol=t, max_iter=max_iter))
    return _verify_and_refine(system, step, b[None], tol)[0]
