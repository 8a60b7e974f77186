"""Rectangle-improved gauge actions (Luscher-Weisz, Iwasaki, DBW2).

``S = beta sum_x [ c0 sum_{mu<nu} (1 - Re tr P / 3)
                 + c1 sum_{mu!=nu} (1 - Re tr R_{mu nu} / 3) ]``

with ``c0 = 1 - 8 c1`` (normalisation preserving the continuum limit) and
``R_{mu nu}`` the 2x1 rectangle with long side mu.  Its force is ``Ta``
of the plaquette and rectangle staples of the loop engine
(:class:`repro.loops.LinkPlanes`), on link planes; the rectangle
staples are validated, like every force in this package, against the
numerical gradient of the action.

Presets: Luscher-Weisz (tree-level Symanzik) c1 = -1/12; Iwasaki
c1 = -0.331; DBW2 c1 = -1.4088.
"""

from __future__ import annotations

import numpy as np

from repro.fields import GaugeField
from repro.hmc.action import GaugeAction
from repro.loops import LinkPlanes, average_plaquette
from repro.su3 import planes

__all__ = [
    "ImprovedGaugeAction",
    "LUSCHER_WEISZ_C1",
    "IWASAKI_C1",
    "DBW2_C1",
]

LUSCHER_WEISZ_C1 = -1.0 / 12.0
IWASAKI_C1 = -0.331
DBW2_C1 = -1.4088


class ImprovedGaugeAction(GaugeAction):
    """Plaquette + rectangle gauge action with ``c0 = 1 - 8 c1``."""

    def __init__(self, beta: float, c1: float = LUSCHER_WEISZ_C1) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.c1 = float(c1)
        self.c0 = 1.0 - 8.0 * self.c1

    def action(self, gauge: GaugeField) -> float:
        u = gauge.u
        vol = gauge.lattice.volume
        s_plaq = self.c0 * 6 * vol * (1.0 - average_plaquette(u))
        lp = LinkPlanes(u)
        pairs = [(mu, nu) for mu in range(4) for nu in range(4) if nu != mu]
        rect_sum = sum(float(np.mean(np.trace(lp.rectangle(mu, nu)[0]))) for mu, nu in pairs)
        s_rect = self.c1 * len(pairs) * vol * (1.0 - rect_sum / (3 * len(pairs)))
        return self.beta * (s_plaq + s_rect)

    def force(self, gauge: GaugeField) -> np.ndarray:
        lp = LinkPlanes(gauge.u)
        w = lp.staples()
        w *= self.c0
        w += self.c1 * lp.rectangle_staples()
        return planes.from_planes(planes.project_algebra(w, self.beta / 6.0, out=w), lp.dims)
