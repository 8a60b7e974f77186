"""E12 — extension table: low-mode deflation ablation.

Setup cost (Lanczos) against per-solve savings (deflated vs plain CG) —
the economics of eigCG-style deflation: it pays when many right-hand sides
(12 per propagator x many configs) share one deflation basis *and* the
operator has a low-mode cluster to remove.  The dense rows are a model
problem that has one; the Wilson row is the operator the measurement
service actually solves (8x4^3, m = 0.3, beta = 5.7), which does not —
the row the block-deflation path was deleted on.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import MatrixOperator, WilsonDirac
from repro.fields import GaugeField
from repro.hmc import heatbath_sweep, overrelaxation_sweep
from repro.lattice import Lattice4D
from repro.solvers import EigenPairs, cg, deflated_cg, lanczos
from repro.util import Table, Timer

__all__ = ["e12_deflation"]


def _row(operator: str, k: int, plain, res, setup: int) -> dict:
    saved = plain.iterations - res.iterations
    return {
        "operator": operator,
        "k": k,
        "plain_iterations": plain.iterations,
        "iterations": res.iterations,
        "speedup_iters": plain.iterations / max(res.iterations, 1),
        "setup_applies": setup,
        "converged": res.converged,
        "breakeven_solves": setup / max(saved, 1) if k else 0.0,
        # Per-solve wall time makes deflation-reuse economics
        # directly comparable with the E19 batching numbers.
        "wall_time_s": res.wall_time,
    }


#: The operator ``serve_propagator`` solves, on its baseline seed.
WILSON_SHAPE, WILSON_MASS, WILSON_BETA, WILSON_SEED = (8, 4, 4, 4), 0.3, 5.7, 20130817
#: First depth on the 40/80/.../640 ladder whose Ritz pairs let
#: :func:`deflated_cg` reach ``tol`` in the *true* residual.
WILSON_KRYLOV = 640


def _wilson_row(k: int, tol: float) -> dict:
    """Plain vs ``k``-vector deflated CG on a thermalised Wilson ``M^dag M``,
    for ``M^dag`` of a point source (a propagator column's normal equations)."""
    shape, mass, beta, seed = WILSON_SHAPE, WILSON_MASS, WILSON_BETA, WILSON_SEED
    rng = np.random.default_rng([seed, 1])
    lattice = Lattice4D(shape)
    gauge = GaugeField.hot(lattice, rng=rng)
    for _ in range(12):
        heatbath_sweep(gauge, beta, rng)
        overrelaxation_sweep(gauge, beta, rng)
    gauge.reunitarize()
    dirac = WilsonDirac(gauge, mass)
    nop = dirac.normal_op()
    source = np.zeros(lattice.shape + (4, 3), dtype=np.complex128)
    source[0, 0, 0, 0, 0, 0] = 1.0
    b = dirac.apply_dagger(source)

    plain = cg(nop, b, tol=tol, max_iter=10000)
    applies0 = nop.n_applies
    with Timer() as setup_wall:
        pairs = lanczos(nop, k, b.shape, krylov_dim=WILSON_KRYLOV, rng=seed)
    setup = nop.n_applies - applies0
    res = deflated_cg(nop, b, pairs, tol=tol, max_iter=10000)
    extent = "x".join(str(n) for n in shape)
    row = _row(f"Wilson {extent} m={mass:g}", k, plain, res, setup)
    row.update(
        plain_wall_time_s=plain.wall_time,
        setup_wall_time_s=setup_wall.elapsed,
        eigenvalues=(float(pairs.values[0]), float(pairs.values[-1])),
        max_eigen_residual=float(pairs.residuals.max()),
        true_residual=res.residual,
    )
    return row


def e12_deflation(
    n: int = 120,
    n_low: int = 12,
    k_values: tuple[int, ...] = (0, 4, 8, 12),
    tol: float = 1e-8,
    seed: int = 7,
) -> tuple[Table, list[dict]]:
    """Dense model problem with a controlled low-mode cluster, then one
    row on the serving Wilson operator."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.concatenate([np.geomspace(1e-4, 1e-2, n_low), np.linspace(0.5, 4.0, n - n_low)])
    op = MatrixOperator((q * eigs) @ q.conj().T)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)

    pairs_full = lanczos(op, max(k_values), (n,), krylov_dim=n, rng=seed + 1)
    plain = cg(op, b, tol=tol, max_iter=10000)
    rows = []
    for k in k_values:
        if k == 0:
            res, setup = plain, 0
        else:
            sub = EigenPairs(
                pairs_full.values[:k], pairs_full.vectors[:k], pairs_full.residuals[:k]
            )
            res = deflated_cg(op, b, sub, tol=tol, max_iter=10000)
            setup = n  # Lanczos operator applications (shared across solves)
        rows.append(_row(f"dense n={n}", k, plain, res, setup))
    rows.append(_wilson_row(max(k_values), tol))

    columns = {
        "operator": "operator",
        "k deflated": "k",
        "plain iters": "plain_iterations",
        "CG iters": "iterations",
        "iter speedup": "speedup_iters",
        "setup applies": "setup_applies",
        "break-even #solves": "breakeven_solves",
        "per-solve wall s": "wall_time_s",
    }
    table = Table(
        f"E12 — deflation ablation ({n_low} clustered low modes in the dense model, tol={tol:g})",
        list(columns),
    )
    for r in rows:
        table.add_row([r[key] for key in columns.values()])
    return table, rows
