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

The force is ``Ta`` of the staples ``W`` of the loop engine
(:class:`repro.loops.LinkPlanes`), five products a plane where the
seed's ``staple_sum`` formed eight per plane and direction.
"""

from __future__ import annotations

import numpy as np

from repro import su3
from repro.fields import GaugeField
from repro.loops import PLANES, LinkPlanes, PlaquetteMemo
from repro.su3 import planes
from repro.util.rng import ensure_rng

__all__ = ["GaugeAction", "WilsonGaugeAction", "kinetic_energy", "sample_momenta"]


def sample_momenta(
    gauge: GaugeField, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Gaussian su(3) momenta, one per link, colour axes outermost in memory:
    :func:`kinetic_energy` sums in memory order, which the ledgers' bits fix."""
    rng = ensure_rng(rng)
    pi = su3.random_algebra((4,) + gauge.lattice.shape, rng=rng, scale=1.0)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(pi, (-2, -1), (0, 1))), (0, 1), (-2, -1))


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
        return plaquette_force(gauge.u, self.beta / 6.0)


def plaquette_force(u: np.ndarray, scale: float) -> np.ndarray:
    """``scale Ta(W)``, ``W_mu = U_mu(x) A_mu(x)`` the staples of
    :meth:`repro.loops.LinkPlanes.staples`, of a (4, T, Z, Y, X, 3, 3) link array.

    ``W`` is summed here from the engine's plaquettes, in the bytes of the
    output force until a direction is written (the temporaries are a few
    link directions, the accumulators two gauge fields of planes).  A
    plane's second direction takes ``-P`` for ``P^dag``, which ``Ta`` does
    not tell apart (``Ta(P^dag) = -Ta(P)``), so no ``P^dag`` is formed.
    """
    lp = LinkPlanes(u)
    force = np.empty(u.shape, u.dtype)
    w = force.view(lp.links.dtype).reshape(lp.links.shape)
    w[...] = 0.0
    back = np.zeros_like(lp.links)
    for mu, nu in PLANES:
        plaq = lp.plaquette(mu, nu, back[mu], back[nu])
        w[mu] += plaq
        w[nu] -= plaq
        del plaq  # not held through the next plane's products
    for mu in range(4):
        wmu = planes.mul(lp.links[mu : mu + 1], back[mu : mu + 1])
        wmu += w[mu : mu + 1]
        planes.project_algebra(wmu, scale, out=wmu)
        planes.from_planes(wmu, lp.dims, out=force[mu : mu + 1])
    return force
