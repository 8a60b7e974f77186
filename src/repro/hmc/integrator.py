"""Symplectic, reversible molecular-dynamics integrators.

Both update schemes are volume-preserving and time-reversible, so the
Metropolis step is exact.  Leapfrog has O(eps^2) Hamiltonian error per
trajectory; the Omelyan 2nd-order minimum-norm scheme has the same order
with a ~10x smaller coefficient at 1.5x the force evaluations — the E10
ablation measures exactly that trade.

The drift is the Cayley-Hamilton exponential times the links on link
planes (:mod:`repro.su3.planes`).  :func:`_schemes` builds both schemes
around any drift; :mod:`repro.campaign` builds them around the seed's
``eigh`` drift, which its pinned ledger needs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fields import GaugeField
from repro.hmc.action import GaugeAction
from repro.su3 import planes

__all__ = ["leapfrog", "omelyan", "INTEGRATORS"]

#: Omelyan-Mryglod-Folk 2nd-order minimum-norm coefficient.
OMELYAN_LAMBDA = 0.1931833275037836


def _drift(gauge: GaugeField, pi: np.ndarray, eps: float) -> None:
    """``U <- exp(eps pi) U``: the Cayley-Hamilton exponential times the
    links, on link planes (:mod:`repro.su3.planes`)."""
    u = gauge.u
    # Two directions at a time: the exponential's scalar work is call-bound
    # at 4^4 (a call over all four directions is 30 % faster than one call
    # a direction) and its temporaries scale with the field: a drift peaks
    # 9.5 fermion blocks above its start, output included (the eigh drift
    # 25.6, one direction at a time 5).
    links = np.empty((len(u), 2, 3, 3, u[0].size // 9), u.real.dtype)
    for half in (slice(0, 2), slice(2, 4)):
        x = planes.to_planes(pi[half])
        x *= eps
        planes.mul(planes.expm(x), planes.to_planes(u[half]), out=links[half])
    gauge.u = planes.from_planes(links, u.shape[1:5])


def _kick(gauge: GaugeField, pi: np.ndarray, action: GaugeAction, eps: float) -> None:
    """``pi <- pi - eps F(U)`` in place."""
    pi -= eps * action.force(gauge)


def _schemes(drift: Callable) -> dict[str, Callable]:
    """The two update schemes around one ``drift(gauge, pi, eps)``."""

    def leapfrog(
        gauge: GaugeField,
        pi: np.ndarray,
        action: GaugeAction,
        eps: float,
        n_steps: int,
    ) -> None:
        """Standard kick-drift-kick leapfrog, in place."""
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        _kick(gauge, pi, action, 0.5 * eps)
        for step in range(n_steps):
            drift(gauge, pi, eps)
            _kick(gauge, pi, action, eps if step < n_steps - 1 else 0.5 * eps)

    def omelyan(
        gauge: GaugeField,
        pi: np.ndarray,
        action: GaugeAction,
        eps: float,
        n_steps: int,
    ) -> None:
        """Omelyan 2MN: kick(lam) drift(1/2) kick(1-2lam) drift(1/2) kick(lam)."""
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        lam = OMELYAN_LAMBDA
        _kick(gauge, pi, action, lam * eps)
        for step in range(n_steps):
            drift(gauge, pi, 0.5 * eps)
            _kick(gauge, pi, action, (1.0 - 2.0 * lam) * eps)
            drift(gauge, pi, 0.5 * eps)
            # Successive trajectories fuse the trailing and leading lam-kicks.
            _kick(gauge, pi, action, (2.0 * lam if step < n_steps - 1 else lam) * eps)

    return {"leapfrog": leapfrog, "omelyan": omelyan}


INTEGRATORS: dict[str, Callable] = _schemes(_drift)
leapfrog, omelyan = INTEGRATORS["leapfrog"], INTEGRATORS["omelyan"]
