"""Gell-Mann basis of su(3).

Generators ``T_a = lambda_a / 2`` with normalisation
``tr(T_a T_b) = delta_ab / 2``.  Algebra elements are written
``A = i sum_a c_a T_a`` with real coefficients ``c_a``; this is the basis the
HMC momenta are sampled in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gellmann_matrices", "algebra_to_coeffs", "coeffs_to_algebra"]

_SQ3 = np.sqrt(3.0)

_LAMBDA = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1 / _SQ3, 0, 0], [0, 1 / _SQ3, 0], [0, 0, -2 / _SQ3]],
    ],
    dtype=np.complex128,
)


def gellmann_matrices() -> np.ndarray:
    """The eight Gell-Mann matrices ``lambda_a``, shape (8, 3, 3)."""
    return _LAMBDA.copy()


def coeffs_to_algebra(coeffs: np.ndarray) -> np.ndarray:
    """Map real coefficients (..., 8) to ``i sum_a c_a T_a`` (..., 3, 3), C-contiguous:
    a matmul per 512 rows, too small for OpenBLAS to wake its threads (ms)."""
    flat = np.asarray(coeffs, dtype=np.float64).reshape(-1, 8)
    out = np.empty((len(flat), 9), np.complex128)
    for r in range(0, len(flat), 512):
        np.matmul(flat[r : r + 512], _LAMBDA.reshape(8, 9), out=out[r : r + 512])
    out *= 0.5j
    return out.reshape(np.shape(coeffs)[:-1] + (3, 3))


def algebra_to_coeffs(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`coeffs_to_algebra`: ``c_a = 2 tr(-i A T_a)``.

    Exact for exactly traceless anti-Hermitian input; for approximately
    anti-Hermitian input it returns the coefficients of the projection.
    """
    h = -1j * np.asarray(a)
    # c_a = 2 tr(H T_a) = tr(H lambda_a)
    return np.real(np.einsum("...ij,aji->...a", h, _LAMBDA, optimize=True))
