"""Gauge-field generation: Hybrid Monte Carlo and heatbath.

The HMC implementation follows the production structure: actions expose
``action(u)`` and ``force(u)`` (with ``pi_dot = -force``), symplectic
integrators evolve ``(U, pi)``, and a Metropolis accept/reject step makes
the algorithm exact.  Forces are validated against numerical derivatives of
the action in the tests — the classic way sign conventions are pinned down.
"""

from repro.hmc.action import GaugeAction, WilsonGaugeAction, kinetic_energy, sample_momenta
from repro.hmc.integrator import leapfrog, omelyan, INTEGRATORS
from repro.hmc.hmc import HMC, TrajectoryResult
from repro.hmc.pseudofermion import TwoFlavorWilsonAction, wilson_bilinear_force
from repro.hmc.rational import RationalApprox, fit_rational_power
from repro.hmc.rhmc import OneFlavorWilsonAction, estimate_spectral_bounds
from repro.hmc.improved import (
    ImprovedGaugeAction,
    LUSCHER_WEISZ_C1,
    IWASAKI_C1,
    DBW2_C1,
)
from repro.hmc.heatbath import heatbath_sweep, overrelaxation_sweep, su2_heatbath_pauli

__all__ = [
    "wilson_bilinear_force",
    "RationalApprox",
    "fit_rational_power",
    "OneFlavorWilsonAction",
    "estimate_spectral_bounds",
    "ImprovedGaugeAction",
    "LUSCHER_WEISZ_C1",
    "IWASAKI_C1",
    "DBW2_C1",
    "GaugeAction",
    "WilsonGaugeAction",
    "kinetic_energy",
    "sample_momenta",
    "leapfrog",
    "omelyan",
    "INTEGRATORS",
    "HMC",
    "TrajectoryResult",
    "TwoFlavorWilsonAction",
    "heatbath_sweep",
    "overrelaxation_sweep",
    "su2_heatbath_pauli",
]
