"""Gauge actions, momenta and forces.

Conventions (fixed by the force-vs-numerical-gradient tests):

* momenta ``pi[mu, x]`` are su(3)-valued (anti-Hermitian traceless),
  sampled as ``i c_a T_a`` with ``c_a ~ N(0, 1)``;
* kinetic energy ``K = sum |pi|_F^2`` (Frobenius) which equals
  ``(1/2) sum_a c_a^2``;
* equations of motion ``dU/dt = pi U``, ``dpi/dt = -force(U)``;
* Wilson action ``S = beta sum_{x, mu<nu} (1 - Re tr P / 3)`` gives
  ``force = (beta/6) Ta[U_mu(x) A_mu(x)]`` with ``A`` the staple sum and
  ``Ta`` the traceless anti-Hermitian projector.
"""

from __future__ import annotations

import numpy as np

from repro import su3
from repro.fields import GaugeField
from repro.loops import PlaquetteMemo, staple_sum
from repro.util.rng import ensure_rng

__all__ = ["GaugeAction", "WilsonGaugeAction", "kinetic_energy", "sample_momenta"]


def sample_momenta(
    gauge: GaugeField, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Gaussian su(3) momenta, one per link."""
    rng = ensure_rng(rng)
    return su3.random_algebra((4,) + gauge.lattice.shape, rng=rng, scale=1.0)


def kinetic_energy(pi: np.ndarray) -> float:
    """``K = sum |pi|_F^2 = (1/2) sum_a c_a^2`` over all links."""
    return float(np.sum(np.abs(pi) ** 2))


class GaugeAction:
    """Interface: anything with an action value and a force on the links."""

    def action(self, gauge: GaugeField) -> float:
        raise NotImplementedError

    def force(self, gauge: GaugeField) -> np.ndarray:
        """``F[mu, x]`` in the algebra, with ``dpi/dt = -F``."""
        raise NotImplementedError


class WilsonGaugeAction(GaugeAction):
    """The single-plaquette Wilson action ``S = beta sum (1 - Re tr P / 3)``.

    ``plaquette`` is the memo its energies read; :class:`~repro.hmc.HMC`
    reports and checkpoints the plaquette through the same one.
    """

    def __init__(self, beta: float) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.plaquette = PlaquetteMemo()

    def action(self, gauge: GaugeField) -> float:
        lat = gauge.lattice
        nplanes = 6
        mean_plaq = self.plaquette(gauge.u)  # already 1/3 Re tr
        return self.beta * nplanes * lat.volume * (1.0 - mean_plaq)

    def force(self, gauge: GaugeField) -> np.ndarray:
        u = gauge.u
        f = np.empty_like(u)
        for mu in range(4):
            w = su3.mul(u[mu], staple_sum(u, mu))
            f[mu] = (self.beta / 6.0) * su3.project_algebra(w)
        return f
