#!/usr/bin/env python3
"""Dynamical (2-flavour) Hybrid Monte Carlo on a small lattice.

Runs the full algorithm of the paper's gauge-generation campaigns in
miniature: Wilson gauge action + two degenerate sea quarks via a
pseudofermion field on the even sites (even-odd preconditioning), Omelyan
integration, Metropolis accept/reject.  Every force evaluation hides a CG
solve — exactly why these campaigns needed a petaflop machine — stopped at
1e-7; the final energy of the Metropolis test continues the last one to
1e-10, and the initial energy is the heatbath's |eta|^2, with no solve.
The telemetry counters say how many iterations a trajectory spent in them.

Run:  python examples/dynamical_hmc.py       (about ten seconds)
"""

import numpy as np

from repro import (
    GaugeField,
    HMC,
    Lattice4D,
    TwoFlavorWilsonAction,
    WilsonGaugeAction,
    average_plaquette,
    telemetry,
)


def main() -> None:
    lat = Lattice4D((4, 4, 4, 4))
    beta = 5.3
    sea_mass = 0.5

    gauge = GaugeField.warm(lat, eps=0.25, rng=42)
    print(f"lattice       : {lat},  beta = {beta},  2 flavours at m = {sea_mass}")
    print(f"start plaq    : {average_plaquette(gauge):.4f}\n")

    hmc = HMC(
        [WilsonGaugeAction(beta), TwoFlavorWilsonAction(mass=sea_mass)],
        step_size=0.05,
        n_steps=8,
        integrator="omelyan",
        rng=43,
    )

    print("traj    dH        accept   plaquette   CG iters")
    with telemetry.telemetry_mode("counters"):
        iterations = telemetry.get_registry().counter("solver/cg/iterations")
        for i in range(10):
            before = iterations.value
            r = hmc.trajectory(gauge)
            print(
                f"{i:4d}   {r.delta_h:+8.4f}   {'yes' if r.accepted else ' no'}   "
                f"{r.plaquette:.4f}      {iterations.value - before:5d}"
            )

    print(f"\nacceptance    : {hmc.acceptance_rate:.0%}")
    print(f"<|dH|>        : {np.mean(np.abs(hmc.dh_history)):.4f}")
    print(f"final plaq    : {average_plaquette(gauge):.4f}")
    print(f"link health   : max |U^dag U - 1| = {gauge.unitarity_violation():.2e}")


if __name__ == "__main__":
    main()
