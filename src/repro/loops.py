"""Wilson loops: plaquettes, staples, clover leaves and rectangles.

Shared by the gauge actions and forces (:mod:`repro.hmc`), smearing and
the Wilson flow (:mod:`repro.smear`), the clover term (:mod:`repro.dirac`)
and the observables (:mod:`repro.measure`).

Conventions: links are ``u[mu, t, z, y, x]`` with ``U_mu(x)`` pointing from
``x`` to ``x + mu``; all gauge-field shifts are periodic.

The loop engine is :class:`LinkPlanes`: the links on planes
(:mod:`repro.su3.planes`) with the site gathers of
:func:`repro.kernels.shifts.term_site_tables`.  Every loop of a
``(mu, nu)`` plane comes from a few shared products.  With
``R = U_mu(x) U_nu(x+mu)`` and ``T = U_nu(x) U_mu(x+nu)``:

* the plaquette ``P = R T^dag`` closes both forward staples,
  ``U_mu A_mu^fwd = P`` and ``U_nu A_nu^fwd = P^dag``;
* the backward staples are ``R^dag U_nu`` and ``T^dag U_mu``, gathered
  from ``x - nu`` and ``x - mu``;
* the clover's four leaves are ``P``, ``U_nu [T^dag U_mu](x-mu)``,
  ``[T^dag R](x-mu-nu)`` and ``[R^dag U_nu](x-nu)^dag U_mu^dag``;
* a 2x1 rectangle is the same plaquette with the double link
  ``U2_mu = U_mu(x) U_mu(x+mu)`` for ``U_mu`` (:meth:`LinkPlanes.rectangle_staples`).

Five products a plane give the sum of staples as ``W_mu = U_mu A_mu``
(:meth:`LinkPlanes.staples`), the quantity the force, the flow, stout and
APE smearing read.  :func:`staple_sum`, :func:`plaquette_field` and
:func:`average_plaquette` stay on ``@``: the heatbath sweeps, the HMC
energies and the seed's molecular dynamics read them, and the benchmark
pins their bytes through its inputs and the campaign ledger.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from repro import su3
from repro.kernels.shifts import term_site_tables
from repro.lattice import shift
from repro.su3 import planes
from repro.telemetry import registry as _tm_registry
from repro.telemetry.state import STATE
from repro.util.flops import PLAQUETTE_FLOPS_PER_SITE

__all__ = [
    "PLANES",
    "LinkPlanes",
    "plaquette_field",
    "average_plaquette",
    "PlaquetteMemo",
    "staple_sum",
    "clover_leaf_sum",
    "rectangle_field",
]

#: The six ``(mu, nu)`` planes, ``mu < nu``.
PLANES = tuple((mu, nu) for mu in range(4) for nu in range(mu + 1, 4))


def plaquette_field(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """The untraced plaquette ``P_{mu nu}(x)`` at every site.

    ``P = U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag`` — site axes are the
    gauge array's axes 1..4, so lattice axis ``mu`` is array axis ``mu``
    after selecting the direction.
    """
    if mu == nu:
        raise ValueError("plaquette needs two distinct directions")
    umu, unu = u[mu], u[nu]
    a = su3.mul(umu, shift(unu, mu, 1))
    b = su3.mul(unu, shift(umu, nu, 1))  # (U_nu(x) U_mu(x+nu))^dag is the return path
    return su3.mul_dag(a, b)


def average_plaquette(u: np.ndarray) -> float:
    """``<(1/3) Re tr P>`` averaged over sites and the 6 planes.

    1.0 on a cold (unit) configuration; ~0 in the infinite-temperature
    (random) limit.
    """
    total = 0.0
    nplanes = 0
    for mu in range(4):
        for nu in range(mu + 1, 4):
            total += float(np.mean(su3.re_trace(plaquette_field(u, mu, nu))))
            nplanes += 1
    if STATE.counting:
        volume = int(np.prod(u.shape[1:5]))
        reg = _tm_registry.get_registry()
        reg.add("applies/plaquette", 1)
        reg.add("flops/plaquette", PLAQUETTE_FLOPS_PER_SITE * volume)
        reg.add("sites/plaquette", volume)
    return total / (su3.NC * nplanes)


class PlaquetteMemo:
    """:func:`average_plaquette` that serves its last value again while the
    links are the same.

    An HMC trajectory asks for the plaquette of one link state several
    times: the final energy, the trajectory's reported plaquette, the
    checkpoint and the next trajectory's initial energy.  The memo keys
    the last value by a SHA-256 digest of the links' bytes, so an in-place
    edit of the links is seen, a served value is the one a new computation
    would give, and no copy of a link field is kept (at 4^4 the digest
    costs about a tenth of a plaquette).
    """

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._value = 0.0

    def __call__(self, u: np.ndarray) -> float:
        u = np.ascontiguousarray(u)
        key = (u.shape, u.dtype.str, hashlib.sha256(u).digest())
        if key != self._key:
            self._value = average_plaquette(u)
            self._key = key
        return self._value


def staple_sum(u: np.ndarray, mu: int) -> np.ndarray:
    """Sum of the six staples ``A_mu(x)`` around ``U_mu(x)``, one direction on ``@``.

    It stays beside :meth:`LinkPlanes.staples` because its bytes are
    pinned: the heatbath and overrelaxation sweeps (which build every
    benchmark input, so the benchmark's iteration counts fix them) and
    the seed's molecular dynamics of :mod:`repro.campaign._seed_md`
    (which fixes the campaign ledger hash) read it.

    Convention: ``U_mu(x) A_mu(x)`` closes the plaquettes containing the
    link, so ``sum_x Re tr[U_mu(x) A_mu(x)]`` is the plaquette-action part
    seen by that link — the quantity the heatbath weight and the HMC force
    differentiate.

    forward:  ``A = U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag``
    backward: ``A = U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu)``
    """
    stap = np.zeros_like(u[mu])
    umu = u[mu]
    for nu in range(4):
        if nu == mu:
            continue
        unu = u[nu]
        unu_xpmu = shift(unu, mu, 1)
        umu_xpnu = shift(umu, nu, 1)
        # Forward staple: U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag
        stap += su3.mul_dag(su3.mul_dag(unu_xpmu, umu_xpnu), unu)
        # Backward staple: U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu)
        unu_xpmu_mnu = shift(unu_xpmu, nu, -1)
        umu_xmnu = shift(umu, nu, -1)
        unu_xmnu = shift(unu, nu, -1)
        stap += su3.mul(su3.dag_mul(unu_xpmu_mnu, su3.dag(umu_xmnu)), unu_xmnu)
    return stap


def clover_leaf_sum(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """The clover ``Q_{mu nu}(x)``: sum of the four plaquette leaves around
    ``x`` in the (mu, nu) plane (:meth:`LinkPlanes.clover`)."""
    return planes.from_planes(LinkPlanes(u).clover(mu, nu)[None], u.shape[1:5])[0]


def rectangle_field(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """The untraced 2x1 rectangle ``R_{mu nu}(x)`` (long side along mu,
    :meth:`LinkPlanes.rectangle`)."""
    return planes.from_planes(LinkPlanes(u).rectangle(mu, nu)[None], u.shape[1:5])[0]


@lru_cache(maxsize=None)
def _site_gathers(dims: tuple[int, ...]) -> dict[int, np.ndarray]:
    """``{dist: (4, V)}``: row ``mu`` holds the sites ``x + dist mu``, for
    ``dist`` in +-1 (:func:`~repro.kernels.shifts.term_site_tables`) and
    +-2 (the one-step tables composed)."""
    source, _ = term_site_tables(dims)
    gathers = {1: np.ascontiguousarray(source[0::2]), -1: np.ascontiguousarray(source[1::2])}
    for dist in (1, -1):
        gathers[2 * dist] = np.take_along_axis(gathers[dist], gathers[dist], axis=1)
    for table in gathers.values():
        table.flags.writeable = False
    return gathers


class LinkPlanes:
    """The loop engine: the links of a (4, T, Z, Y, X, 3, 3) gauge array on
    planes, ``links[mu]`` being ``U_mu``, and the loops of the module
    docstring built from them."""

    def __init__(self, u: np.ndarray) -> None:
        self.dims = tuple(u.shape[1:5])
        self.links = planes.to_planes(u)
        self._gathers = _site_gathers(self.dims)

    def shift(self, a: np.ndarray, mu: int, dist: int) -> np.ndarray:
        """``a(x + dist mu)`` of planes ``a``, ``dist`` in +-1, +-2.

        ``np.take`` keeps the gathered planes site-minor (an index on the
        last axis would make the site axis outermost, and einsum slow).
        """
        return np.take(a, self._gathers[dist][mu], axis=-1)

    def plaquette(self, mu: int, nu: int, back_mu: np.ndarray, back_nu: np.ndarray) -> np.ndarray:
        """The plaquette ``P_{mu nu} = R T^dag``; adds the plane's backward
        staples ``[R^dag U_nu](x-nu)`` to ``back_mu`` and ``[T^dag U_mu](x-mu)``
        to ``back_nu``."""
        return self._closure(mu, nu, self.links[mu], 1, back_mu, back_nu)

    def _closure(
        self, mu: int, nu: int, umu: np.ndarray, step: int, back_mu: np.ndarray, back_nu: np.ndarray
    ) -> np.ndarray:
        """:meth:`plaquette` with ``umu`` for ``U_mu``, a path of ``step``
        links along mu: the 1x1 loop for ``U_mu`` and the 2x1 rectangle for
        the double link.  Ordered so that at most two of ``R``, ``T`` and
        ``P`` are alive during a product: the force's peak memory rests on it."""
        unu = self.links[nu]
        r = planes.mul(umu, self.shift(unu, mu, step))  # umu(x) U_nu(x + step mu)
        t = planes.mul(unu, self.shift(umu, nu, 1))  # U_nu(x) umu(x + nu)
        back_nu += self.shift(planes.dag_mul(t, umu), mu, -step)
        plaq = planes.mul_dag(r, t)
        del t
        back_mu += self.shift(planes.dag_mul(r, unu), nu, -1)
        return plaq

    def staples(self) -> np.ndarray:
        """``W_mu = U_mu(x) A_mu(x)`` on planes, ``A`` the staple sum of
        :func:`staple_sum`; ``A^dag = W^dag U`` is the sum of the six detours."""
        u = self.links
        w, back = np.zeros_like(u), np.zeros_like(u)
        for mu, nu in PLANES:
            plaq = self.plaquette(mu, nu, back[mu], back[nu])
            w[mu] += plaq
            w[nu] += planes.dag(plaq)
        w += planes.mul(u, back)
        return w

    def clover(self, mu: int, nu: int) -> np.ndarray:
        """The clover ``Q_{mu nu}``: the four leaves of the module docstring,
        leaves 2-4 from the backward products of :meth:`plaquette`
        (``[T^dag R](x-mu-nu)`` is ``[T^dag U_mu](x-mu)`` times ``U_nu``,
        gathered from ``x - nu``)."""
        if mu == nu:
            raise ValueError("clover needs two distinct directions")
        u = self.links
        back_mu, back_nu = np.zeros_like(u[mu]), np.zeros_like(u[nu])
        q = self.plaquette(mu, nu, back_mu, back_nu)
        q += planes.mul(u[nu], back_nu)
        q += self.shift(planes.mul(back_nu, u[nu]), nu, -1)
        q += planes.dag(planes.mul(u[mu], back_mu))
        return q

    def rectangle(self, mu: int, nu: int) -> np.ndarray:
        """The 2x1 rectangle ``R_{mu nu}``, long side along mu."""
        if mu == nu:
            raise ValueError("rectangle needs two distinct directions")
        u = self.links
        u2 = planes.mul(u[mu], self.shift(u[mu], mu, 1))
        r = planes.mul(u2, self.shift(u[nu], mu, 2))
        return planes.mul_dag(r, planes.mul(u[nu], self.shift(u2, nu, 1)))

    def rectangle_staples(self) -> np.ndarray:
        """``W_mu = U_mu(x) A_mu(x)`` of the 2x1 rectangles on planes:
        ``sum_x Re tr W_mu`` counts every rectangle containing a mu-link
        once per containment.

        ``R_{mu nu}`` is the plaquette of the double link
        ``U2_mu = U_mu(x) U_mu(x+mu)`` and ``U_nu``.  Its staples give the
        double link's ``W2_mu``: the rectangles through ``U_mu(x)`` that
        start there.  Those with ``U_mu(x)`` second on the long side are
        ``[U_mu^dag W2_mu U_mu](x-mu)``; the short side takes ``R^dag`` and
        the backward staple like a plaquette's.
        """
        u = self.links
        u2 = planes.mul(u, np.stack([self.shift(u[mu], mu, 1) for mu in range(4)]))
        w, back, w2, back2 = (np.zeros_like(u) for _ in range(4))
        for mu in range(4):
            for nu in range(4):
                if nu != mu:
                    rect = self._closure(mu, nu, u2[mu], 2, back2[mu], back[nu])
                    w2[mu] += rect
                    w[nu] += planes.dag(rect)
        w2 += planes.mul(u2, back2)
        w += planes.mul(u, back)
        w += w2
        for mu in range(4):
            w[mu] += self.shift(planes.dag_mul(u[mu], planes.mul(w2[mu], u[mu])), mu, -1)
        return w
