"""Group-level SU(3) operations: sampling, projection, exponential map.

The exponential map is needed by the HMC integrator (``U -> exp(i eps P) U``)
and must be exactly unitary to machine precision, otherwise reversibility
tests fail.  For batches of 3x3 anti-Hermitian generators we use the
eigendecomposition of the Hermitian matrix ``H = -i A`` (``expm(A) =
V diag(exp(i lambda)) V^dagger``), which numpy batches efficiently.
"""

from __future__ import annotations

import numpy as np

from repro.su3.matrix import NC, dag, identity, mul_dag, trace
from repro.util.rng import ensure_rng

__all__ = [
    "random_su3",
    "random_su3_near_identity",
    "project_su3",
    "reunitarize",
    "expm_su3",
    "project_algebra",
    "random_algebra",
    "unitarity_violation",
    "unitarity_drift",
]


def random_su3(
    shape: tuple[int, ...] = (),
    rng: np.random.Generator | int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Haar-distributed SU(3) matrices of leading shape ``shape``.

    QR decomposition of a Ginibre ensemble with the standard phase fix
    (Mezzadri 2007) gives Haar measure on U(3); dividing by the cube root of
    the determinant lands on SU(3).
    """
    rng = ensure_rng(rng)
    z = rng.normal(size=shape + (NC, NC)) + 1j * rng.normal(size=shape + (NC, NC))
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    q = q * (d / np.abs(d))[..., None, :]
    detq = np.linalg.det(q)
    # Remove the U(1) phase: det(q / det^{1/3}) = 1.
    q /= (detq ** (1.0 / 3.0))[..., None, None]
    return q.astype(dtype)


def random_algebra(
    shape: tuple[int, ...] = (),
    rng: np.random.Generator | int | None = None,
    scale: float = 1.0,
    dtype=np.complex128,
) -> np.ndarray:
    """Gaussian su(3) algebra elements (traceless anti-Hermitian).

    Normalised so that ``<|A|_F^2> = 8 * scale^2 / 2 * ...`` follows the HMC
    kinetic-term convention: each of the 8 Gell-Mann coefficients is an
    independent N(0, scale) real number and ``A = i sum_a c_a T_a`` with
    ``T_a = lambda_a / 2``.
    """
    from repro.su3.gellmann import coeffs_to_algebra

    rng = ensure_rng(rng)
    coeffs = rng.normal(scale=scale, size=shape + (NC * NC - 1,))
    return coeffs_to_algebra(coeffs).astype(dtype)


def random_su3_near_identity(
    shape: tuple[int, ...] = (),
    eps: float = 0.1,
    rng: np.random.Generator | int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """SU(3) matrices a distance ~``eps`` from the identity (for heatbath-ish
    Metropolis updates and perturbed-field tests)."""
    return expm_su3(random_algebra(shape, rng=rng, scale=eps)).astype(dtype)


def project_algebra(a: np.ndarray) -> np.ndarray:
    """Project onto su(3): traceless anti-Hermitian part of ``a``.

    This is the ``Ta()`` operation of Grid/Chroma, used to keep HMC forces in
    the algebra against roundoff drift.
    """
    ah = a - dag(a)
    ah *= 0.5
    tr = trace(ah) / NC
    for i in range(NC):
        ah[..., i, i] -= tr
    return ah


def expm_su3(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of anti-Hermitian ``a``, exactly unitary.

    ``a = i H`` with ``H`` Hermitian; ``exp(a) = V exp(i w) V^dagger`` from the
    eigendecomposition of ``H``.  The result is unitary to machine
    precision, which HMC reversibility needs.  The cost is not small: the
    batched ``eigh`` is about a fifth of a 4^4 quenched trajectory (the
    Cayley-Hamilton map on the ROADMAP is the faster form).
    """
    h = -1j * a
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phase, np.conj(v), optimize=True)


def project_su3(a: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Project a near-SU(3) matrix back onto the group.

    Polar projection (nearest unitary in Frobenius norm) via SVD, then the
    U(1) phase is removed so the determinant is exactly one.  ``iterations``
    is accepted for API familiarity with MILC-style iterative projectors but
    the SVD projector converges in one shot.
    """
    u, _, vh = np.linalg.svd(a)
    q = u @ vh
    detq = np.linalg.det(q)
    q /= (detq ** (1.0 / 3.0))[..., None, None]
    return q


def reunitarize(u: np.ndarray) -> np.ndarray:
    """Gram-Schmidt reunitarisation of gauge links (row convention).

    The standard cheap fix applied periodically during long HMC streams to
    stop roundoff drifting links off the group manifold.
    """
    out = u.copy()
    r0 = out[..., 0, :]
    r0 = r0 / np.linalg.norm(r0, axis=-1, keepdims=True)
    r1 = out[..., 1, :]
    r1 = r1 - np.sum(np.conj(r0) * r1, axis=-1, keepdims=True) * r0
    r1 = r1 / np.linalg.norm(r1, axis=-1, keepdims=True)
    # Third row: conjugate cross product enforces det = +1.
    r2 = np.conj(np.cross(r0, r1))
    out[..., 0, :] = r0
    out[..., 1, :] = r1
    out[..., 2, :] = r2
    return out


def unitarity_violation(u: np.ndarray) -> float:
    """Max-norm deviation of ``u^dagger u`` from the identity — a health
    metric logged by long-running HMC streams."""
    return float(np.max(unitarity_drift(u)))


def unitarity_drift(u: np.ndarray) -> np.ndarray:
    """Per-matrix max-norm deviation of ``u^dagger u`` from the identity.

    Returns an array of shape ``u.shape[:-2]`` so guards can localise which
    links have drifted off the group manifold (a single flipped bit corrupts
    one link; the drift map pinpoints it).  Non-finite entries in ``u``
    propagate to non-finite drift values, which callers must mask with
    ``~np.isfinite`` — a plain ``drift > tol`` comparison is False for NaN.
    """
    uu = mul_dag(u, u)
    uu = uu - identity(u.shape[:-2], dtype=u.dtype)
    return np.max(np.abs(uu), axis=(-2, -1))
