"""Wilson loops: plaquettes, staples and clover leaves.

Shared by the gauge action/force (:mod:`repro.hmc`), the clover term
(:mod:`repro.dirac`) and the observables (:mod:`repro.measure`).

Conventions: links are ``u[mu, t, z, y, x]`` with ``U_mu(x)`` pointing from
``x`` to ``x + mu``; all gauge-field shifts are periodic.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import su3
from repro.lattice import shift
from repro.telemetry import registry as _tm_registry
from repro.telemetry.state import STATE
from repro.util.flops import PLAQUETTE_FLOPS_PER_SITE

__all__ = [
    "plaquette_field",
    "average_plaquette",
    "PlaquetteMemo",
    "staple_sum",
    "clover_leaf_sum",
    "rectangle_field",
]


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
    """Sum of the six staples ``A_mu(x)`` around ``U_mu(x)``.

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
    ``x`` in the (mu, nu) plane.

    ``F_{mu nu} = (Q - Q^dag) / (8 i)`` (projected traceless) is the clover
    field strength.
    """
    if mu == nu:
        raise ValueError("clover needs two distinct directions")
    umu, unu = u[mu], u[nu]
    umu_d = su3.dag(umu)
    unu_d = su3.dag(unu)

    # Leaf 1 (+mu, +nu): U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag
    leaf1 = su3.mul(
        su3.mul(umu, shift(unu, mu, 1)),
        su3.mul(shift(umu_d, nu, 1), unu_d),
    )
    # Leaf 2 (+nu, -mu): U_nu(x) U_mu(x+nu-mu)^dag U_nu(x-mu)^dag U_mu(x-mu)
    leaf2 = su3.mul(
        su3.mul(unu, shift(shift(umu_d, nu, 1), mu, -1)),
        su3.mul(shift(unu_d, mu, -1), shift(umu, mu, -1)),
    )
    # Leaf 3 (-mu, -nu): U_mu(x-mu)^dag U_nu(x-mu-nu)^dag U_mu(x-mu-nu) U_nu(x-nu)
    leaf3 = su3.mul(
        su3.mul(shift(umu_d, mu, -1), shift(shift(unu_d, mu, -1), nu, -1)),
        su3.mul(shift(shift(umu, mu, -1), nu, -1), shift(unu, nu, -1)),
    )
    # Leaf 4 (-nu, +mu): U_nu(x-nu)^dag U_mu(x-nu) U_nu(x+mu-nu) U_mu(x)^dag
    leaf4 = su3.mul(
        su3.mul(shift(unu_d, nu, -1), shift(umu, nu, -1)),
        su3.mul(shift(shift(unu, mu, 1), nu, -1), umu_d),
    )
    return leaf1 + leaf2 + leaf3 + leaf4


def rectangle_field(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """The untraced 2x1 rectangle ``R_{mu nu}(x)`` (long side along mu).

    Used by improved (Iwasaki/Symanzik) gauge actions and as an extra
    observable.
    """
    if mu == nu:
        raise ValueError("rectangle needs two distinct directions")
    umu, unu = u[mu], u[nu]
    # U_mu(x) U_mu(x+mu) U_nu(x+2mu) U_mu(x+mu+nu)^dag U_mu(x+nu)^dag U_nu(x)^dag
    top = su3.mul(su3.mul(umu, shift(umu, mu, 1)), shift(unu, mu, 2))
    umu_xpnu = shift(umu, nu, 1)
    # Return path x+2mu+nu -> x: (U_nu(x) U_mu(x+nu) U_mu(x+mu+nu))^dag
    back = su3.mul(su3.mul(unu, umu_xpnu), shift(umu_xpnu, mu, 1))
    return su3.mul_dag(top, back)
