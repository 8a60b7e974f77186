"""The SU(3) colour multiply on site-minor real planes.

``(U h)_{s a} = U_{a b} h_{s b}`` on half spinors against links.  Every
output element is the left-to-right three-term sum ``t_0 + t_1 + t_2``
with ``Re t_b = Ur hr - Ui hi`` and ``Im t_b = Ur hi + Ui hr``, each
product rounded once — the way einsum's complex sum-of-products loop in
the reference kernel evaluates it, so the two agree bit for bit.  The
plane form spells it out with real ufuncs (a complex ``np.multiply``
would not do: its SIMD loop contracts the products into fused
multiply-adds).
"""

from __future__ import annotations

import numpy as np

__all__ = ["color_mul_planes_into"]


def color_mul_planes_into(
    out: np.ndarray, u: np.ndarray, h: np.ndarray, dagger: bool, prod: np.ndarray
) -> np.ndarray:
    """Site-minor split-complex ``out = U h`` (``U^dag h`` when ``dagger``).

    ``u`` is the (G, 2, 3, 3, V) plane stack (direction, re|im, a, b,
    site) of the links of ``G`` directions; ``h`` and ``out`` are
    (G, 2, 2, B, 3, V) half-spinor stacks (direction, re|im, spin, rhs,
    colour, site), one half spinor per direction, and ``u`` broadcasts
    over spin and rhs.  ``prod`` (G, 2, 2, 2, B, 3, V) is scratch.
    Every ufunc runs V-long contiguous rows.

    With ``dagger`` the link index is transposed and ``Ui`` enters with
    the opposite sign, which is the reference's multiply by ``conj(U)``
    exactly (negation commutes with rounding).
    """
    re_op, im_op = (np.add, np.subtract) if dagger else (np.subtract, np.add)
    for b in range(3):
        ub = u[:, :, b, :] if dagger else u[:, :, :, b]
        # prod[g, cu, ch, s, rhs, a, site] = u[g, cu, a, b] * h[g, ch, s, rhs, b]
        np.multiply(ub[:, :, None, None, None], h[:, None, :, :, :, b, None], out=prod)
        # t_b = (Ur hr -+ Ui hi, Ur hi +- Ui hr) lands in prod[:, 0]; out = t_0 + t_1 + t_2.
        t = prod[:, 0] if b else out
        re_op(prod[:, 0, 0], prod[:, 1, 1], out=t[:, 0])
        im_op(prod[:, 0, 1], prod[:, 1, 0], out=t[:, 1])
        if b:
            out += t
    return out
