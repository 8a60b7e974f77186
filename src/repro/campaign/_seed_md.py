"""The seed's molecular dynamics, which :class:`HMCCampaign` keeps.

Every other HMC integrates on link planes (:mod:`repro.su3.planes`): the
Cayley-Hamilton drift and the shared-staple force.  They compute the same
trajectories as the seed's ``eigh`` exponential and ``@`` staples to
rounding, not to the bit, and the end-to-end benchmark pins the quenched
campaign ledger's hash.  So a campaign's HMC still runs the seed's force
(``staple_sum`` and ``@``) and drift (``expm_su3`` times the links), through
the two private classes below.  The benchmark revision that re-pins that
hash deletes this module and the two lines in ``runner`` that name it.
"""

from __future__ import annotations

import numpy as np

from repro import su3
from repro.fields import GaugeField
from repro.hmc import HMC, WilsonGaugeAction
from repro.hmc.integrator import _schemes
from repro.loops import staple_sum


class SeedWilsonGaugeAction(WilsonGaugeAction):
    """:class:`WilsonGaugeAction` with the seed's force: ``staple_sum`` per direction."""

    def force(self, gauge: GaugeField) -> np.ndarray:
        u = gauge.u
        f = np.empty_like(u)
        for mu in range(4):
            w = su3.mul(u[mu], staple_sum(u, mu))
            f[mu] = (self.beta / 6.0) * su3.project_algebra(w)
        return f


def _seed_drift(gauge: GaugeField, pi: np.ndarray, eps: float) -> None:
    """``U <- exp(eps pi) U`` through ``eigh``."""
    gauge.u = su3.mul(su3.expm_su3(eps * pi), gauge.u)


class SeedHMC(HMC):
    """:class:`HMC` whose schemes drift through :func:`_seed_drift`."""

    _integrators = _schemes(_seed_drift)
