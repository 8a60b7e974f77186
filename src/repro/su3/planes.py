"""SU(3) algebra on link planes: ``(re|im, a, b, site)`` real arrays.

The layout of the fused kernel's link tables
(:func:`repro.kernels.fused.link_planes`): the real and imaginary parts
of every matrix entry are separate planes and the site index is minor,
so a 3x3 product over ``V`` sites is a handful of ufunc and einsum calls
over ``V``-long rows instead of one BLAS call per matrix.  Any leading
axes (directions, planes of a staple stack) broadcast.  Neighbours are
gathered along the site axis with the flat tables of
:func:`repro.kernels.shifts.term_site_tables` (``np.take`` on the last
axis); nothing here knows the lattice.

The products (:func:`mul`, :func:`mul_dag`, :func:`dag_mul`) form the
four real products ``a_c b_d`` in one einsum and combine them into the
real and imaginary planes; they equal ``@`` to a few ulp, not bit for
bit.

:func:`expm` is the Cayley-Hamilton exponential of Morningstar and
Peardon (hep-lat/0311018): for ``X`` in su(3) and ``Q = -i X``
(Hermitian, traceless), ``exp(X) = f0 + f1 Q + f2 Q^2`` with ``f_j``
scalar functions of ``c0 = det Q`` and ``c1 = tr Q^2 / 2``.  With
``u = sqrt(c1/3) cos(theta/3)``, ``w = sqrt(c1) sin(theta/3)`` and
``cos theta = |c0| / c0_max``, ``c0_max = 2 (c1/3)^(3/2)``::

    h0 = (u^2 - w^2) e^{2iu} + e^{-iu} [8u^2 cos w + 2iu (3u^2 + w^2) xi0(w)]
    h1 = 2u e^{2iu} - e^{-iu} [2u cos w - i (3u^2 - w^2) xi0(w)]
    h2 = e^{2iu} - e^{-iu} [cos w + 3iu xi0(w)]
    f_j = h_j / (9u^2 - w^2),   xi0(w) = sin(w) / w

and ``f_j(-c0) = (-1)^j conj f_j(c0)``.  Taking ``|c0|`` keeps
``theta/3 <= pi/6``, so ``9u^2 - w^2 >= 2 c1``: the only singular point
is ``c1 -> 0``, where the *small-angle branch* sums the exponential
series reduced by ``Q^3 = c1 Q + c0`` instead.  The same symmetry makes
the inverse exact: ``expm(-X)`` is ``expm(X)^dagger`` bit for bit, so a
drift by ``-eps`` undoes one by ``+eps`` to the rounding of the link
product alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "to_planes",
    "from_planes",
    "mul",
    "mul_dag",
    "dag_mul",
    "dag",
    "project_algebra",
    "expm",
]

#: ``c1`` below which :func:`expm` sums the series: there the largest
#: eigenvalue of ``Q`` is below 0.012 and 8 terms reach 1e-20.
SMALL_C1 = 1e-4
_SERIES_TERMS = 8


def to_planes(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``planes[g, re|im, a, b, site]``, contiguous, of a (G, *sites, 3, 3) array or view."""
    volume = u[0].size // 9
    planes = np.empty((len(u), 2, 3, 3, volume), u.real.dtype) if out is None else out
    for g in range(len(u)):
        sites = u[g].reshape(volume, 3, 3).transpose(1, 2, 0)
        planes[g, 0] = sites.real
        planes[g, 1] = sites.imag
    return planes


def from_planes(
    planes: np.ndarray, site_shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`to_planes`: (G, *site_shape, 3, 3) complex, into
    ``out`` (C-contiguous) if given."""
    g = len(planes)
    if out is None:
        dtype = np.result_type(planes.dtype, np.complex64)
        out = np.empty((g,) + tuple(site_shape) + (3, 3), dtype)
    elif not out.flags.c_contiguous:
        raise ValueError("from_planes writes into a C-contiguous out only")
    sites = out.reshape(g, -1, 3, 3).transpose(0, 2, 3, 1)
    sites.real = planes[:, 0]
    sites.imag = planes[:, 1]
    return out


def _product(spec: str, a: np.ndarray, b: np.ndarray, conj_a: bool, conj_b: bool,
             out: np.ndarray | None) -> np.ndarray:
    """``out = op(a) op(b)`` from the four real products ``p[c, d] = a_c b_d``
    (one einsum), ``op`` the conjugate where asked: ``Re = p00 -+ p11``,
    ``Im = +-p01 +- p10``."""
    p = np.einsum(spec, a, b)
    if out is None:
        out = np.empty(p.shape[:-5] + p.shape[-4:], p.dtype)
    re, im = out[..., 0, :, :, :], out[..., 1, :, :, :]
    real = np.add if conj_a != conj_b else np.subtract
    real(p[..., 0, 0, :, :, :], p[..., 1, 1, :, :, :], out=re)
    if conj_a:  # Im = Re a Im b - Im a Re b (conj_b is then False)
        np.subtract(p[..., 0, 1, :, :, :], p[..., 1, 0, :, :, :], out=im)
    elif conj_b:
        np.subtract(p[..., 1, 0, :, :, :], p[..., 0, 1, :, :, :], out=im)
    else:
        np.add(p[..., 0, 1, :, :, :], p[..., 1, 0, :, :, :], out=im)
    return out


def mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a b`` on planes."""
    return _product("...cikv,...dkjv->...cdijv", a, b, False, False, out)


def mul_dag(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a b^dagger`` on planes."""
    return _product("...cikv,...djkv->...cdijv", a, b, False, True, out)


def dag_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a^dagger b`` on planes."""
    return _product("...ckiv,...dkjv->...cdijv", a, b, True, False, out)


def dag(a: np.ndarray) -> np.ndarray:
    """``a^dagger`` on planes."""
    out = np.empty_like(a)
    out[..., 0, :, :, :] = a[..., 0, :, :, :].swapaxes(-3, -2)
    np.negative(a[..., 1, :, :, :].swapaxes(-3, -2), out=out[..., 1, :, :, :])
    return out


def project_algebra(a: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """``scale Ta(a)``: the traceless anti-Hermitian part of ``a``, on planes.

    ``Re = (a_r - a_r^T) / 2`` and ``Im = (a_i + a_i^T) / 2 - tr(a_i) / 3``
    on the diagonal — :func:`repro.su3.project_algebra` in this layout.
    """
    out = np.empty_like(a) if out is None else out
    half = 0.5 * scale
    re, im = a[..., 0, :, :, :], a[..., 1, :, :, :]
    np.subtract(re, re.swapaxes(-3, -2), out=out[..., 0, :, :, :])
    np.add(im, im.swapaxes(-3, -2), out=out[..., 1, :, :, :])
    out *= half
    im = out[..., 1, :, :, :]
    trace = (im[..., 0, 0, :] + im[..., 1, 1, :] + im[..., 2, 2, :]) / 3.0
    for i in range(3):
        im[..., i, i, :] -= trace
    return out


def _series(c0: np.ndarray, c1: np.ndarray) -> tuple:
    """``(f0, f1, f2)`` from the exponential series, ``Q^n = a I + b Q + c Q^2``
    reduced by ``Q^3 = c1 Q + c0``: exact to rounding for small ``c1``."""
    zero = np.zeros_like(c0)
    a, b, c = zero + 1.0, zero, zero
    f = [np.zeros(c0.shape, complex) for _ in range(3)]
    for n in range(_SERIES_TERMS):
        coeff = 1j**n / math.factorial(n)
        for fj, term in zip(f, (a, b, c)):
            fj += coeff * term
        a, b, c = c * c0, a + c * c1, b
    return tuple(f)


def expm(x: np.ndarray) -> np.ndarray:
    """``exp(x)`` of su(3) planes ``x`` (traceless anti-Hermitian), on planes.

    The Cayley-Hamilton map of the module docstring; unitary to rounding,
    and ``expm(-x)`` is exactly ``expm(x)^dagger``.
    """
    # With Q = -i x: Q^2 = -x^2, c1 = -tr(x^2) / 2, and det Q = tr(Q Q^2) / 3
    # = sum_ab Re(Q_ab conj(Q^2_ab)) / 3 = -sum_ab Im(x_ab conj(x^2_ab)) / 3.
    x2 = mul(x, x)
    xr, xi, x2r, x2i = (a[..., c, :, :, :] for a in (x, x2) for c in (0, 1))
    c1 = -0.5 * np.einsum("...iiv->...v", x2r)
    c0 = np.einsum("...abv,...abv->...v", xr, x2i)
    c0 -= np.einsum("...abv,...abv->...v", xi, x2r)
    c0 /= 3.0
    negative = np.signbit(c0)
    small = c1 < SMALL_C1
    c1s = np.where(small, 1.0, c1)
    c0max = 2.0 * (c1s / 3.0) ** 1.5
    theta = np.arccos(np.minimum(np.abs(c0) / c0max, 1.0))
    u = np.sqrt(c1s / 3.0) * np.cos(theta / 3.0)
    w = np.sqrt(c1s) * np.sin(theta / 3.0)
    uu, ww = u * u, w * w
    tiny = np.abs(w) < 0.05
    xi0 = np.where(tiny, 1.0 - ww / 6.0 * (1.0 - ww / 20.0 * (1.0 - ww / 42.0)),
                   np.sin(w) / np.where(tiny, 1.0, w))
    cw = np.cos(w)
    e2iu = np.exp(2j * u)
    emiu = np.exp(-1j * u)
    h0 = (uu - ww) * e2iu + emiu * (8.0 * uu * cw + 2j * u * (3.0 * uu + ww) * xi0)
    h1 = 2.0 * u * e2iu - emiu * (2.0 * u * cw - 1j * (3.0 * uu - ww) * xi0)
    h2 = e2iu - emiu * (cw + 3j * u * xi0)
    denom = 9.0 * uu - ww
    f0, f1, f2 = h0 / denom, h1 / denom, h2 / denom
    if small.any():
        at = np.flatnonzero(small)
        for fj, sj in zip((f0, f1, f2), _series(np.abs(c0.reshape(-1)[at]), c1.reshape(-1)[at])):
            fj.reshape(-1)[at] = sj
    # f_j(-c0) = (-1)^j conj f_j(c0)
    np.negative(f0.imag, out=f0.imag, where=negative)
    np.negative(f1.real, out=f1.real, where=negative)
    np.negative(f2.imag, out=f2.imag, where=negative)
    # exp = f0 + f1 Q + f2 Q^2 = f0 + g1 x + g2 x^2 with g1 = -i f1, g2 = -f2.
    g1r, g1i = f1.imag[..., None, None, :], -f1.real[..., None, None, :]
    g2r, g2i = -f2.real[..., None, None, :], -f2.imag[..., None, None, :]
    out = np.empty_like(x)
    re, im = out[..., 0, :, :, :], out[..., 1, :, :, :]
    np.multiply(g1r, xr, out=re)
    re -= g1i * xi
    re += g2r * x2r
    re -= g2i * x2i
    np.multiply(g1r, xi, out=im)
    im += g1i * xr
    im += g2r * x2i
    im += g2i * x2r
    for i in range(3):
        re[..., i, i, :] += f0.real
        im[..., i, i, :] += f0.imag
    return out
