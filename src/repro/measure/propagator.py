"""Point-source quark propagators.

``S(x)_{s c, s0 c0}`` solves ``M S = delta_{x,x0}`` for all 12 source
spin-colour combinations — 12 Dirac solves per propagator, the dominant
cost of spectroscopy (and of the paper's production workload).
"""

from __future__ import annotations

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.wilson import WilsonDirac
from repro.fields import point_source
from repro.solvers.wilson_solve import solve_wilson, solve_wilson_eo

__all__ = ["point_propagator", "propagator_norm_check"]


def point_propagator(
    dirac: WilsonDirac,
    source_coord: tuple[int, int, int, int] = (0, 0, 0, 0),
    tol: float = 1e-9,
    max_iter: int = 20000,
    use_even_odd: bool = True,
) -> np.ndarray:
    """The full 12x12 point propagator from ``source_coord``.

    Returns ``S[t, z, y, x, s, c, s0, c0]``.  Solves via the even-odd
    preconditioned CG by default (the production path); set
    ``use_even_odd=False`` for the unpreconditioned normal-equation solve.
    """
    lat = dirac.lattice
    out = np.empty(lat.shape + (4, 3, 4, 3), dtype=np.complex128)
    eo = EvenOddWilson(dirac.gauge, dirac.mass, dirac.phases) if use_even_odd else None
    for s0 in range(4):
        for c0 in range(3):
            b = point_source(lat, source_coord, s0, c0)
            if use_even_odd:
                res = solve_wilson_eo(eo, b, tol=tol, max_iter=max_iter)
            else:
                res = solve_wilson(dirac, b, tol=tol, max_iter=max_iter)
            if not res.converged:
                raise RuntimeError(
                    f"propagator solve (s0={s0}, c0={c0}) failed: {res.summary()}"
                )
            out[..., s0, c0] = res.x
    return out


def propagator_norm_check(
    dirac: WilsonDirac,
    prop: np.ndarray,
    source_coord: tuple[int, int, int, int],
) -> float:
    """The largest ``|delta - M S|`` over the 12 spin-colour columns of ``prop``
    — the standard sanity stamp written next to stored propagators.  A point
    source has unit norm, which is all that makes this absolute residual
    the relative one."""
    lat = dirac.lattice
    worst = 0.0
    for s0 in range(4):
        for c0 in range(3):
            b = point_source(lat, source_coord, s0, c0)
            r = b - dirac.apply(prop[..., s0, c0])
            worst = max(worst, float(np.linalg.norm(r.ravel())))
    return worst
