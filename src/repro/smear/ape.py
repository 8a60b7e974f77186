"""APE link smearing.

``U' = Proj_SU(3)[ (1 - alpha) U_mu(x) + (alpha/6) sum_staples path ]``

where the summed paths are the six 3-link detours from ``x`` to ``x+mu``.
With the repository staple convention (``U A`` closes the plaquettes) the
detour sum is ``A^dag = W^dag U``, ``W`` the staples of the loop engine
(:meth:`repro.loops.LinkPlanes.staples`).
"""

from __future__ import annotations

from repro import su3
from repro.fields import GaugeField
from repro.loops import LinkPlanes
from repro.su3 import planes

__all__ = ["ape_smear"]


def ape_smear(gauge: GaugeField, alpha: float = 0.5, n_iter: int = 1) -> GaugeField:
    """Return an APE-smeared copy (input untouched).

    ``alpha`` in [0, 1); typical values 0.4-0.6 with a handful of
    iterations.  Projection back to SU(3) uses the polar (nearest-unitary)
    projector.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if n_iter < 0:
        raise ValueError(f"n_iter must be >= 0, got {n_iter}")
    out = gauge.copy()
    for _ in range(n_iter):
        lp = LinkPlanes(out.u)
        detours = planes.from_planes(planes.dag_mul(lp.staples(), lp.links), lp.dims)
        out.u = su3.project_su3((1.0 - alpha) * out.u + (alpha / 6.0) * detours)
    return out
