"""Lanczos eigensolver for Hermitian operators.

The low modes of ``M^dag M`` control solver convergence at light quark
mass; computing a handful of them and projecting them out of the Krylov
iteration (deflation) is the standard cure for critical slowing down in
propagator production — QUDA, Grid and the eigCG family all ship a variant.

This is plain Lanczos with full reorthogonalisation (robust and simple;
the Krylov dimensions used here are tiny compared to the operator size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.fields import inner, norm
from repro.util.rng import ensure_rng

__all__ = ["lanczos", "EigenPairs"]


@dataclass
class EigenPairs:
    """Approximate extremal eigenpairs of a Hermitian operator.

    ``values[i]`` ascending; ``vectors[i]`` unit-norm ndarrays of the
    operator's field shape; ``residuals[i] = |A v - lambda v|``.
    """

    values: np.ndarray
    vectors: list[np.ndarray]
    residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def lanczos(
    op: LinearOperator,
    n_eigen: int,
    field_shape: tuple[int, ...],
    krylov_dim: int | None = None,
    rng: np.random.Generator | int | None = None,
    dtype=np.complex128,
    start: np.ndarray | None = None,
) -> EigenPairs:
    """Lowest ``n_eigen`` eigenpairs of Hermitian positive(-semi)definite ``op``.

    ``krylov_dim`` defaults to ``max(3 n_eigen + 8, 20)``; accuracy improves
    with larger subspaces.  Full reorthogonalisation keeps the basis clean.
    The Krylov space grows from ``start`` (default: Gaussian, from ``rng``).
    """
    if n_eigen < 1:
        raise ValueError(f"n_eigen must be >= 1, got {n_eigen}")
    m = krylov_dim or max(3 * n_eigen + 8, 20)
    size = int(np.prod(field_shape))
    if m > size:
        m = size
    if n_eigen > m:
        raise ValueError(f"n_eigen={n_eigen} exceeds Krylov dimension {m}")

    if start is None:
        rng = ensure_rng(rng)
        start = (rng.normal(size=field_shape) + 1j * rng.normal(size=field_shape)).astype(dtype)
    v = start / norm(start)

    basis: list[np.ndarray] = [v]
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(m):
        w = op(basis[j])
        alpha = float(inner(basis[j], w).real)
        alphas.append(alpha)
        w = w - alpha * basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # Full reorthogonalisation (twice is enough).
        for _ in range(2):
            for q in basis:
                w = w - inner(q, w) * q
        beta = norm(w)
        if beta < 1e-14 or j == m - 1:
            break
        betas.append(beta)
        basis.append(w / beta)

    k = len(alphas)
    t = np.zeros((k, k))
    for i in range(k):
        t[i, i] = alphas[i]
    for i in range(min(len(betas), k - 1)):
        t[i, i + 1] = t[i + 1, i] = betas[i]
    evals, evecs = np.linalg.eigh(t)

    n_out = min(n_eigen, k)
    values = evals[:n_out]
    vectors = []
    residuals = np.empty(n_out)
    for i in range(n_out):
        ritz = sum(evecs[j, i] * basis[j] for j in range(k))
        ritz = ritz / norm(ritz)
        vectors.append(ritz)
        residuals[i] = norm(op(ritz) - values[i] * ritz)
    return EigenPairs(values=values, vectors=vectors, residuals=residuals)
