#!/usr/bin/env python3
"""Rational HMC: one dynamical quark flavour.

``det(M^dag M)^{1/2}`` has no simple pseudofermion representation — RHMC
replaces the inverse square root by an optimised rational approximation
whose poles a single multishift CG on the even-odd Schur system solves at
once.  This script builds the approximations, shows their accuracy, and
runs a short exact-accept trajectory stream.

Run:  python examples/rhmc_single_flavor.py     (a few seconds)
"""

import numpy as np

from repro import GaugeField, HMC, Lattice4D, WilsonGaugeAction, average_plaquette
from repro.hmc import OneFlavorWilsonAction, fit_rational_power


def main() -> None:
    # 1. The rational approximation itself.
    ra = fit_rational_power(-0.5, 1e-3, 10.0, n_poles=12)
    print("rational approximation of x^(-1/2) on [1e-3, 10]:")
    print(f"  poles          : {len(ra.shifts)}")
    print(f"  max rel error  : {ra.max_rel_error:.2e}")
    xs = np.geomspace(1e-3, 10, 5)
    for x in xs:
        print(f"    r({x:9.4f}) = {ra(x):12.6f}   x^-1/2 = {x**-0.5:12.6f}")

    # 2. One-flavour dynamical HMC on a small lattice.
    lat = Lattice4D((2, 2, 2, 2))
    gauge = GaugeField.warm(lat, eps=0.2, rng=7)
    print(f"\nlattice {lat}, beta = 5.5, one flavour at m = 1.0")
    hmc = HMC(
        [WilsonGaugeAction(5.5), OneFlavorWilsonAction(mass=1.0, n_poles=10, solver_tol=1e-11)],
        step_size=0.02,
        n_steps=6,
        rng=8,
    )
    print("traj    dH        accept   plaquette")
    for i in range(6):
        r = hmc.trajectory(gauge)
        print(
            f"{i:4d}   {r.delta_h:+8.4f}   {'yes' if r.accepted else ' no'}   "
            f"{r.plaquette:.4f}"
        )
    print(f"\nacceptance : {hmc.acceptance_rate:.0%}")
    print(f"final plaq : {average_plaquette(gauge):.4f}")


if __name__ == "__main__":
    main()
