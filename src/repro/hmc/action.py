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

The force runs on link planes (:mod:`repro.su3.planes`).  The six
staples of one ``(mu, nu)`` plane come from one set of shared products
of the four links around its plaquettes: with ``R = U_mu(x) U_nu(x+mu)``
and ``T = U_nu(x) U_mu(x+nu)``,

* both forward staples close into the plaquette ``P = R T^dag``:
  ``U_mu A_mu^fwd = P`` and ``U_nu A_nu^fwd = P^dag``, and
  ``Ta(P^dag) = -Ta(P)``;
* the backward staples are ``R^dag U_nu`` and ``T^dag U_mu`` gathered
  from ``x - nu`` and ``x - mu``,

five products per plane where the seed's ``staple_sum`` formed eight
per plane and direction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import su3
from repro.fields import GaugeField
from repro.kernels.shifts import term_site_tables
from repro.loops import PlaquetteMemo
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


#: The six ``(mu, nu)`` planes, ``mu < nu``.
_PLANES = tuple((mu, nu) for mu in range(4) for nu in range(mu + 1, 4))


@lru_cache(maxsize=None)
def _site_gathers(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(ahead, behind)``, (4, V) each: the sites ``x + mu`` and ``x - mu``
    of :func:`~repro.kernels.shifts.term_site_tables`."""
    source, _ = term_site_tables(dims)
    ahead, behind = np.ascontiguousarray(source[0::2]), np.ascontiguousarray(source[1::2])
    ahead.flags.writeable = False
    behind.flags.writeable = False
    return ahead, behind


def plaquette_force(u: np.ndarray, scale: float) -> np.ndarray:
    """``scale Ta[U_mu(x) A_mu(x)]`` of a (4, T, Z, Y, X, 3, 3) link array.

    ``A`` is the staple sum of :func:`repro.loops.staple_sum`, formed one
    ``(mu, nu)`` plane at a time from the shared products of the module
    docstring; the temporaries are a few link directions, the
    accumulators two gauge fields of planes.
    """
    dims = u.shape[1:5]
    ahead, behind = _site_gathers(dims)
    links = planes.to_planes(u)
    force = np.empty(u.shape, u.dtype)
    # m[mu] = U_mu A_mu^fwd up to what Ta removes, kept in the bytes of
    # force[mu] until that direction is written; back[mu] = A_mu^bwd.
    m = force.view(links.dtype).reshape(links.shape)
    m[...] = 0.0
    back = np.zeros_like(links)
    # np.take keeps the gathered planes site-minor (an index on the last
    # axis would make the site axis outermost, and einsum slow).
    for mu, nu in _PLANES:
        r = planes.mul(links[mu], np.take(links[nu], ahead[mu], axis=-1))  # U_mu(x) U_nu(x+mu)
        t = planes.mul(links[nu], np.take(links[mu], ahead[nu], axis=-1))  # U_nu(x) U_mu(x+nu)
        plaq = planes.mul_dag(r, t)
        m[mu] += plaq
        m[nu] -= plaq
        del plaq
        # The backward staples, formed at x - nu (mu's) and x - mu (nu's).
        back[mu] += np.take(planes.dag_mul(r, links[nu]), behind[nu], axis=-1)
        del r
        back[nu] += np.take(planes.dag_mul(t, links[mu]), behind[mu], axis=-1)
    for mu in range(4):
        w = planes.mul(links[mu : mu + 1], back[mu : mu + 1])
        w += m[mu : mu + 1]
        planes.from_planes(planes.project_algebra(w, scale, out=w), dims, out=force[mu : mu + 1])
    return force
