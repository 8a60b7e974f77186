"""Sparse half-spinor projection/reconstruction on site-minor real planes.

In the DeGrand-Rossi chiral basis every 2x2 gamma block ``A_mu`` has
exactly one non-zero entry per row (a unit or ``+-i``), so the
spin-projection ``h = u + s A_mu l`` and the reconstruction lower half
``l' = s A_mu^dag h`` are permute-and-scale operations — no 2x2 matrix
multiply is needed.  The generic einsum formulation in
:mod:`repro.gammas` spends more time in those tiny contractions than in
the SU(3) color multiply.

The fused kernel keeps fields as real planes (re|im, spin, ..., site):
the real/imaginary index and the spin index are the two leading axes
and the site index is minor.  There a coefficient of +-1 is an add or a
subtract of whole planes and +-i is the same on the swapped (re|im)
plane with one sign flipped — ``i (a + ib) = -b + ia`` — so projection
and reconstruction need no multiply at all.

For a hop small enough to be call-bound the same rows also come as
gather-and-sign tables over all eight direction terms at once
(:data:`PROJECT_STACK`, :data:`RECON_STACK`): a (re|im, spin, term)
table of the plane each output plane reads and an exact ±1 per plane.

The tables are derived *from* ``repro.gammas._A_BLOCKS`` at import so
the two formulations cannot drift apart, and the arithmetic (``a - b``
for the reference's ``a + (-1) b``) is value-identical: negation and the
one-non-zero contraction are exact in IEEE floating point, so fused and
reference kernels agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.gammas.gamma import _A_BLOCKS

__all__ = [
    "PROJECT_ROWS",
    "RECON_ROWS",
    "gamma5_planes",
    "project_planes_into",
    "reconstruct_planes_accumulate",
]


def _sparse_rows(m: np.ndarray) -> tuple[tuple[int, complex], ...]:
    """Decompose a one-non-zero-per-row 2x2 block into (column, coeff) rows."""
    rows = []
    for p in range(2):
        nz = np.flatnonzero(m[p])
        if len(nz) != 1:  # pragma: no cover - all chiral-basis blocks qualify
            raise ValueError(f"block row {m[p]} is not single-entry sparse")
        q = int(nz[0])
        rows.append((q, complex(m[p, q])))
    return tuple(rows)


#: ``h[p] = psi_upper[p] + s * c * psi_lower[q]`` with ``(q, c) = PROJECT_ROWS[mu][p]``.
PROJECT_ROWS = tuple(_sparse_rows(_A_BLOCKS[mu]) for mu in range(4))

#: ``psi_lower[p] = s * d * h[q]`` with ``(q, d) = RECON_ROWS[mu][p]`` (rows of A^dag).
RECON_ROWS = tuple(_sparse_rows(_A_BLOCKS[mu].conj().T) for mu in range(4))


def _plane_source(k: complex, c: int) -> tuple[int, float]:
    """``(plane, sign)``: plane ``c`` of ``k z`` is ``sign`` times that plane of ``z``.

    Real ``k``: plane ``c``, sign ``k``.  Imaginary ``k``: the other plane,
    sign ``-Im k`` into the real part and ``+Im k`` into the imaginary.
    """
    return (c, k.real) if k.imag == 0 else (1 - c, k.imag * (2 * c - 1))


def _plane_ops(rows, s: int) -> tuple:
    """``(ufunc, dst, src)`` steps of ``dst (+|-)= s * block @ src`` on planes.

    ``dst`` and ``src`` index the leading (re|im, spin) axes of a
    half-spinor plane stack.  One step per (re|im, spin) plane, fused
    along either axis wherever two steps share a ufunc and differ only
    in their index along that axis (the two planes are then one basic
    slice, forwards or reversed): 1, 4, 2 and 2 steps for mu = T, Z, Y, X.
    """
    steps = []
    for p, (q, coeff) in enumerate(rows):
        for c in range(2):
            src_c, sign = _plane_source(s * coeff, c)
            steps.append((np.add if sign > 0 else np.subtract, ((c,), (p,)), ((src_c,), (q,))))
    for axis in (0, 1):
        fused: dict = {}
        for ufunc, dst, src in sorted(steps, key=lambda step: step[1]):
            along = fused.setdefault((ufunc, dst[1 - axis], src[1 - axis]), [(), ()])
            along[0] += dst[axis]
            along[1] += src[axis]
        steps = [
            (ufunc, (d, dst_other) if axis == 0 else (dst_other, d),
             (q, src_other) if axis == 0 else (src_other, q))
            for (ufunc, dst_other, src_other), (d, q) in fused.items()
        ]

    def index(entries):
        return tuple(
            e[0] if len(e) == 1 else slice(None, None, 1 if e == (0, 1) else -1) for e in entries
        )

    return tuple((ufunc, index(dst), index(src)) for ufunc, dst, src in steps)


_PROJECT_PLANES = {
    (mu, s): _plane_ops(PROJECT_ROWS[mu], s) for mu in range(4) for s in (+1, -1)
}
_RECON_PLANES = {
    (mu, s): _plane_ops(RECON_ROWS[mu], s) for mu in range(4) for s in (+1, -1)
}


def _stacked_rows(rows_of, index) -> tuple[np.ndarray, np.ndarray]:
    """``(source, sign)`` tables, (2, 2, 8) and (2, 2, 8, 1, 1), of the eight
    terms in the reference's order f0, b0, ..., f3, b3 (term ``k = 2 mu +
    (s > 0)``, ``s = -1`` forward): plane (re|im c, spin p) of term ``k``
    is ``sign[c, p, k]`` times the plane ``source[c, p, k] = index(k, c', q)``
    it reads, ``(q, coeff) = rows_of[mu][p]``."""
    source = np.empty((2, 2, 8), np.intp)
    sign = np.empty((2, 2, 8, 1, 1))
    for k in range(8):
        mu, s = k // 2, 2 * (k % 2) - 1
        for p, (q, coeff) in enumerate(rows_of[mu]):
            for c in range(2):
                src_c, sign[c, p, k] = _plane_source(s * coeff, c)
                source[c, p, k] = index(k, src_c, q)
    source.flags.writeable = False
    sign.flags.writeable = False
    return source, sign


#: The eight projections at once: ``h[c, p, k] = upper[c, p] + sign[c, p, k]
#: * psi[source[c, p, k]]``, ``source`` indexing the (re|im, spin) planes of
#: a full spinor.
PROJECT_STACK = _stacked_rows(PROJECT_ROWS, lambda k, c, q: 4 * c + 2 + q)

#: The lower halves of the eight reconstructions at once: ``lower[c, p, k]
#: = sign[c, p, k] * h[source[c, p, k]]``, ``source`` indexing the
#: (re|im, spin, term) planes of a stack of eight half spinors.
RECON_STACK = _stacked_rows(RECON_ROWS, lambda k, c, q: 8 * (2 * c + q) + k)


def project_planes_into(h: np.ndarray, psi: np.ndarray, mu: int, s: int) -> np.ndarray:
    """Write the half-spinor projection of ``(1 + s gamma_mu) psi`` into ``h``.

    ``psi`` is the (2, 4, ...) plane stack of a spinor field (re|im,
    spin, then any axes with the site index minor); ``h`` is (2, 2, ...).
    """
    upper, lower = psi[:, 0:2], psi[:, 2:4]
    for ufunc, dst, src in _PROJECT_PLANES[mu, s]:
        ufunc(upper[dst], lower[src], out=h[dst])
    return h


def reconstruct_planes_accumulate(out: np.ndarray, h: np.ndarray, mu: int, s: int) -> np.ndarray:
    """Accumulate the reconstructed spinor: ``out`` (2, 4, ...) += ``(h, s A_mu^dag h)``."""
    upper, lower = out[:, 0:2], out[:, 2:4]
    upper += h
    for ufunc, dst, src in _RECON_PLANES[mu, s]:
        ufunc(lower[dst], h[src], out=lower[dst])
    return out


def gamma5_planes(planes: np.ndarray) -> np.ndarray:
    """``planes`` (re|im, spin, ...) = gamma5 ``planes``, in place: a negation of spins 2-3."""
    np.negative(planes[:, 2:4], out=planes[:, 2:4])
    return planes
