"""Point-source quark propagators.

``S(x)_{s c, s0 c0}`` solves ``M S = delta_{x,x0}`` for all 12 source
spin-colour combinations — one block solve of 12 columns per propagator,
the dominant cost of spectroscopy (and of the paper's production workload).
"""

from __future__ import annotations

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.wilson import WilsonDirac
from repro.fields import point_source
from repro.solvers.base import SolveResult
from repro.solvers.block import solve_wilson_batch

__all__ = ["point_propagator", "point_sources", "propagator_from_solves", "propagator_norm_check"]


def point_sources(lattice, source_coord: tuple[int, int, int, int]) -> np.ndarray:
    """The 12 spin-colour point sources at ``source_coord`` as an
    (12, T, Z, Y, X, 4, 3) block, ``s0`` outer and ``c0`` inner, written
    one at a time (twelve held at once would raise a server's heap mark)."""
    B = np.empty((12,) + lattice.shape + (4, 3), dtype=np.complex128)
    for k, (s0, c0) in enumerate(np.ndindex(4, 3)):
        B[k] = point_source(lattice, source_coord, s0, c0)
    return B


def propagator_from_solves(lattice, results: list[SolveResult]) -> np.ndarray:
    """``S[t, z, y, x, s, c, s0, c0]`` from the solves of the
    :func:`point_sources` columns; an unconverged column raises ``RuntimeError``."""
    out = np.empty(lattice.shape + (4, 3, 4, 3), dtype=np.complex128)
    for (s0, c0), res in zip(np.ndindex(4, 3), results):
        if not res.converged:
            raise RuntimeError(f"propagator solve (s0={s0}, c0={c0}) failed: {res.summary()}")
        out[..., s0, c0] = res.x
    return out


def point_propagator(
    dirac: WilsonDirac,
    source_coord: tuple[int, int, int, int] = (0, 0, 0, 0),
    tol: float = 1e-9,
    max_iter: int = 20000,
    use_even_odd: bool = True,
) -> np.ndarray:
    """The full 12x12 point propagator from ``source_coord``.

    Returns ``S[t, z, y, x, s, c, s0, c0]``: one block solve of the 12
    point sources, on the even-odd Schur system by default (the production
    path) or on the unpreconditioned normal equations with
    ``use_even_odd=False``.
    """
    op = EvenOddWilson(dirac.gauge, dirac.mass, dirac.phases) if use_even_odd else dirac
    B = point_sources(dirac.lattice, source_coord)
    results = solve_wilson_batch(op, B, tol=tol, max_iter=max_iter)
    return propagator_from_solves(dirac.lattice, results)


def propagator_norm_check(
    dirac: WilsonDirac,
    prop: np.ndarray,
    source_coord: tuple[int, int, int, int],
) -> float:
    """The largest ``|delta - M S|`` over the 12 spin-colour columns of ``prop``
    — the standard sanity stamp written next to stored propagators.  A point
    source has unit norm, which is all that makes this absolute residual
    the relative one."""
    B = point_sources(dirac.lattice, source_coord)
    S = np.moveaxis(prop.reshape(prop.shape[:6] + (12,)), -1, 0)
    R = B - dirac.apply_batch_into(np.ascontiguousarray(S), np.empty_like(B))
    return max(float(np.linalg.norm(r.ravel())) for r in R)
