"""Multi-RHS CG: one batched operator apply serves every column's recurrence.

``block_cg`` solves ``op X[i] = B[i]`` for an ``(nrhs, ...)`` block of
right-hand sides.  Each column runs the one guarded recurrence of
:mod:`repro.solvers.cg` at the ``REPRO_GUARD`` level, and every round one
:meth:`~repro.dirac.operator.LinearOperator.apply_batch` serves all
pending requests, so links and gather tables stream once per round
instead of once per RHS.  The batched apply is bit-identical per column
to the single-RHS apply, so every column is **bit for bit**
:func:`repro.solvers.cg.cg` on that column alone (tier-1 parity tests,
every guard level): the "independent systems, shared operator traffic"
scheme of production multi-RHS propagator solvers (Chroma/tmLQCD class),
not a shared-search-space block-Krylov method that changes the iterates.

While every column asks for its own search direction the apply runs in
place on one ``P``/``AP`` block pair; requests are packed into a smaller
batch only when a column has finished or asks for another vector (the
``x0`` seed, a guard's true-residual replay).  ``solve_wilson_batch`` is
the propagator front end on it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.operator import LinearOperator
from repro.guard.policy import resolve_policy
from repro.solvers.base import SolveResult
from repro.solvers.cg import _record, _recurrence
from repro.solvers.wilson_solve import _even_odd_system, _normal_system, _verify_and_refine
from repro.telemetry.spans import span

__all__ = ["block_cg", "solve_wilson_batch"]


def block_cg(
    op: LinearOperator,
    B: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    record_history: bool = True,
    out: np.ndarray | None = None,
) -> list[SolveResult]:
    """Solve ``op X[i] = B[i]`` for every column of an (nrhs, ...) block.

    ``op`` must be Hermitian positive definite.  Returns one
    :class:`SolveResult` per column, each bit-identical (iterates,
    residual history, counts, guard events) to :func:`~repro.solvers.cg.
    cg` on that column at the ``REPRO_GUARD`` level; ``wall_time`` is the
    block's share, elapsed / nrhs.  The solutions are the rows of ``out``
    (default: a new block).  ``x0`` is copied into it and never written,
    unless ``out`` is ``x0`` itself: then the solve continues ``x0`` in
    place.

    The block budget: ``B`` and the solutions, the residuals, the search
    directions, their images, the pack block of rounds that cannot run in
    place (allocated by the first of them) and one column of scratch that
    every recurrence shares.  Under ``REPRO_GUARD=heal`` each recurrence
    also keeps its last verified iterate, one block more.
    """
    B = np.asarray(B)
    if B.ndim < 2:
        raise ValueError(f"block_cg needs an (nrhs, ...) block, got shape {B.shape}")
    t0 = time.perf_counter()
    X = np.empty_like(B) if out is None else out
    if x0 is not None and x0 is not X:
        np.copyto(X, x0)
    nrhs = B.shape[0]
    R, P, AP = np.empty_like(B), np.empty_like(B), np.empty_like(B)
    x_cols, p_cols = list(X), list(P)  # the views each recurrence keeps
    tmp = np.empty_like(B[0])
    policy = resolve_policy(None)
    recs = [
        _recurrence(
            B[i], None if x0 is None else x_cols[i], tol, max_iter, record_history,
            policy, np.vdot, "block_cg", x=x_cols[i], r=R[i], p=p_cols[i], tmp=tmp,
        )
        for i in range(nrhs)
    ]
    results: list[SolveResult] = [None] * nrhs
    applies = [0] * nrhs
    pending: dict[int, np.ndarray] = {}  # column -> the vector it asks A of

    def advance(i: int, av: np.ndarray | None = None) -> None:
        try:
            pending[i] = recs[i].send(av)
        except StopIteration as done:
            results[i] = done.value
            pending.pop(i, None)

    # Every recurrence has read its ``A v`` by its next request, so AP is
    # free by the time a round packs; only the requests need a block.
    pack = None
    with span("block_cg", cat="solver"):
        for i in range(nrhs):
            advance(i)
        while pending:
            cols = list(pending)  # ascending: columns only ever leave
            if len(cols) == nrhs and all(pending[i] is p_cols[i] for i in cols):
                op.apply_batch(P, AP)
            else:
                if pack is None:
                    pack = np.empty_like(B)
                for j, i in enumerate(cols):
                    np.copyto(pack[j], pending[i])
                op.apply_batch(pack[: len(cols)], AP[: len(cols)])
            for j, i in enumerate(cols):
                applies[i] += 1
                advance(i, AP[j])

    wall_time = (time.perf_counter() - t0) / nrhs
    for res, n in zip(results, applies):
        res.operator_applies = n
        res.flops = n * op.flops_per_apply
        res.wall_time = wall_time
        _record(res, B[0])
    return results


def solve_wilson_batch(
    dirac,
    B: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> list[SolveResult]:
    """Solve ``M X[i] = B[i]`` for a block of sources (propagator columns).

    The verify-and-refine policy of :mod:`repro.solvers.wilson_solve` with
    :func:`block_cg` as its step, on the normal equations of a ``WilsonDirac``
    or the even-odd Schur system of an ``EvenOddWilson``: the block solve
    shares link traffic across columns, and each column is bit for bit
    ``solve_wilson`` (``solve_wilson_eo``) on it alone.
    """
    B = np.asarray(B)
    system = (
        _even_odd_system(dirac) if isinstance(dirac, EvenOddWilson) else _normal_system(dirac)
    )

    def step(rhs, X, inner_tol):
        out = np.empty_like(rhs) if X is None else X  # round 2 continues X in place
        return out, block_cg(system.op, rhs, x0=X, tol=inner_tol, max_iter=max_iter, out=out)

    return _verify_and_refine(system, step, B, tol)
