"""Batched 3x3 complex matrix primitives.

These are the innermost operations of the gauge-field code outside the
molecular dynamics.  They use ``@`` (matmul) on the trailing axes, which
numpy runs one small matrix at a time; the molecular dynamics multiplies
site-minor link planes instead (:mod:`repro.su3.planes`), 3-4x faster.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NC",
    "mul",
    "mul_dag",
    "dag_mul",
    "dag",
    "trace",
    "re_trace",
    "identity",
    "identity_like",
    "det",
    "frobenius_norm",
]

#: Number of colours.
NC = 3


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product ``a @ b``."""
    return a @ b


def mul_dag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``a @ b^dagger`` without materialising ``b^dagger``'s copy.

    ``conj`` produces a view-sized temporary either way; swapaxes is free.
    """
    return a @ np.conj(b.swapaxes(-1, -2))


def dag_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``a^dagger @ b``."""
    return np.conj(a.swapaxes(-1, -2)) @ b


def dag(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate on the trailing matrix axes (materialised)."""
    return np.conj(a.swapaxes(-1, -2)).copy()


def trace(a: np.ndarray) -> np.ndarray:
    """Complex trace over the trailing matrix axes."""
    return np.trace(a, axis1=-2, axis2=-1)


def re_trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace — the quantity entering the Wilson action."""
    return np.einsum("...ii->...", a).real


def identity(shape: tuple[int, ...] = (), dtype=np.complex128) -> np.ndarray:
    """Identity matrix broadcast over leading ``shape``."""
    out = np.zeros(shape + (NC, NC), dtype=dtype)
    for i in range(NC):
        out[..., i, i] = 1.0
    return out


def identity_like(a: np.ndarray) -> np.ndarray:
    """Identity with the same leading shape and dtype as ``a``."""
    return identity(a.shape[:-2], dtype=a.dtype)


def det(a: np.ndarray) -> np.ndarray:
    """Batched determinant."""
    return np.linalg.det(a)


def frobenius_norm(a: np.ndarray) -> np.ndarray:
    """Batched Frobenius norm over the trailing matrix axes."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
