"""Stout (Morningstar-Peardon) smearing — analytic, hence usable inside
HMC forces (unlike projection-based APE).

``U' = exp( Ta[ C_mu(x) U_mu(x)^dag ] ) U_mu(x)``

with ``C_mu = rho * (sum of detour paths) = rho * A^dag`` in the repository
staple convention, and ``Ta`` the traceless anti-Hermitian projector — the
exact Morningstar-Peardon ``exp(i Q)`` with ``Q`` Hermitian traceless.
With ``W = U A`` the staples, ``Ta(C U^dag) = rho Ta(W^dag) = -rho Ta(W)``:
a step is the plaquette force with scale ``-rho`` exponentiated onto the
links, on link planes.
"""

from __future__ import annotations

from repro.fields import GaugeField
from repro.hmc.action import plaquette_force
from repro.hmc.integrator import _drift

__all__ = ["stout_smear"]


def stout_smear(gauge: GaugeField, rho: float = 0.1, n_iter: int = 1) -> GaugeField:
    """Return a stout-smeared copy (input untouched).

    ``rho`` ~ 0.1 with a few iterations is the common production choice.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if n_iter < 0:
        raise ValueError(f"n_iter must be >= 0, got {n_iter}")
    out = gauge.copy()
    for _ in range(n_iter):
        _drift(out, plaquette_force(out.u, -rho), 1.0)
    return out
