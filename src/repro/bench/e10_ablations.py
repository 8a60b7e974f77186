"""E10 — Table 5: ablations of the design choices DESIGN.md calls out.

Five comparisons, each isolating one production trick:

1. spin projection on/off   — measured kernel time (2x fewer gauge mat-vecs);
2. even-odd on/off          — Dslash-equivalent applications to tolerance;
3. comm/compute overlap     — modelled exposed comm fraction at small blocks;
4. Omelyan vs leapfrog      — |dH| at equal force-evaluation budget;
5. exp map x product form   — the seed's ``eigh`` exponential and ``@``
   staples (which campaigns keep) against the Cayley-Hamilton map and the
   shared-staple force on link planes: <|dH|>, reversibility, unitarity
   and seconds per quenched 4^4 trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.campaign._seed_md import SeedHMC, SeedWilsonGaugeAction
from repro.dirac import WilsonDirac
from repro.dirac.hopping import hopping_term, hopping_term_naive
from repro.fields import GaugeField, random_fermion
from repro.hmc import (
    HMC,
    WilsonGaugeAction,
    heatbath_sweep,
    kinetic_energy,
    leapfrog,
    omelyan,
    sample_momenta,
)
from repro.lattice import Lattice4D
from repro.machine.model import DslashModel
from repro.machine.spec import BLUEGENE_Q
from repro.solvers import cg, solve_wilson_eo
from repro.util import Table, timed_rounds

__all__ = ["e10_ablations"]


def e10_ablations(seed: int = 88) -> tuple[Table, dict]:
    table = Table(
        "E10 / Table 5 — ablations",
        ["ablation", "baseline", "with trick", "gain"],
    )
    data: dict = {}

    # 1. Spin-projection trick (kernel wall time).
    lat = Lattice4D((8, 8, 4, 4))
    gauge = GaugeField.hot(lat, rng=seed)
    psi = random_fermion(lat, rng=seed + 1)
    [fast] = timed_rounds([lambda: hopping_term(gauge.u, psi)], 3)
    [naive] = timed_rounds([lambda: hopping_term_naive(gauge.u, psi)], 3)
    t_fast, t_naive = min(fast), min(naive)
    data["spin_projection"] = {"naive_s": t_naive, "projected_s": t_fast}
    table.add_row(["spin projection (kernel t)", t_naive, t_fast, t_naive / t_fast])

    # 2. Even-odd preconditioning (nominal work to tolerance).
    lat2 = Lattice4D((8, 4, 4, 4))
    gauge2 = GaugeField.warm(lat2, eps=0.35, rng=seed + 2)
    mass, tol = 0.08, 1e-8
    dirac = WilsonDirac(gauge2, mass)
    b = random_fermion(lat2, rng=seed + 3)
    res_full = cg(dirac.normal_op(), dirac.apply_dagger(b), tol=tol * tol, max_iter=50000)
    from repro.dirac import EvenOddWilson

    res_eo = solve_wilson_eo(EvenOddWilson(gauge2, mass), b, tol=tol, max_iter=50000)
    data["even_odd"] = {"full_gflops": res_full.flops / 1e9, "eo_gflops": res_eo.flops / 1e9}
    table.add_row(
        [
            "even-odd (GF to tol)",
            res_full.flops / 1e9,
            res_eo.flops / 1e9,
            res_full.flops / max(res_eo.flops, 1),
        ]
    )

    # 3. Comm/compute overlap (modelled, small local block on BG/Q).
    local = (4, 4, 4, 4)
    frac_no = DslashModel(BLUEGENE_Q.with_overlap(0.0), local).comm_fraction()
    t_no = DslashModel(BLUEGENE_Q.with_overlap(0.0), local).time()
    t_ov = DslashModel(BLUEGENE_Q, local).time()
    data["overlap"] = {"t_no_overlap": t_no, "t_overlap": t_ov, "comm_frac_no": frac_no}
    table.add_row(["comm overlap (model t, 4^4/node)", t_no, t_ov, t_no / t_ov])

    # 4. Omelyan vs leapfrog at equal force budget (leapfrog n vs omelyan n/2).
    lat3 = Lattice4D((2, 2, 2, 2))
    action = WilsonGaugeAction(5.5)

    def _dh(integ, eps, n):
        g = GaugeField.hot(lat3, rng=seed + 4)
        pi = sample_momenta(g, rng=seed + 5)
        h0 = kinetic_energy(pi) + action.action(g)
        integ(g, pi, action, eps, n)
        return abs(kinetic_energy(pi) + action.action(g) - h0)

    dh_lf = _dh(leapfrog, 0.05, 16)  # 17 force evals
    dh_om = _dh(omelyan, 0.1, 8)     # same trajectory length, ~17 force evals
    data["integrator"] = {"leapfrog_dh": dh_lf, "omelyan_dh": dh_om}
    table.add_row(["omelyan vs leapfrog (|dH|, equal cost)", dh_lf, dh_om, dh_lf / dh_om])

    # 5. Exp map x product form, on the campaign's quenched trajectory.
    md = _md_forms(seed + 6)
    data["exp_map_product_form"] = md
    base, planes = md["eigh / @"], md["CH / planes"]
    for label, key in [("<|dH|>", "mean_abs_dh"), ("reversibility |dU|", "reversibility"),
                       ("unitarity after stream", "unitarity"), ("s / trajectory", "traj_s")]:
        ratio = base[key] / planes[key] if planes[key] else float("nan")
        table.add_row([f"exp map x product form: {label}", base[key], planes[key], ratio])

    return table, data


def _md_forms(seed: int, n_traj: int = 6, rounds: int = 5) -> dict:
    """``eigh`` + ``@`` against Cayley-Hamilton + planes: the same 4^4
    quenched stream (beta 5.6, leapfrog 10 x 0.1, as ``hmc_stream``'s
    campaign) from one heatbath-thermalised start and one momentum stream."""
    rng = np.random.default_rng(seed)
    start = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=rng)
    for _ in range(5):
        heatbath_sweep(start, 5.6, rng)
    forms = {"eigh / @": (SeedHMC, SeedWilsonGaugeAction), "CH / planes": (HMC, WilsonGaugeAction)}
    out, runs = {}, []
    for name, (hmc_type, action_type) in forms.items():
        hmc = hmc_type(action_type(5.6), step_size=0.1, n_steps=10, rng=seed + 1)
        gauge = start.copy()
        results = [hmc.trajectory(gauge) for _ in range(n_traj)]
        there = start.copy()
        pi = sample_momenta(there, rng=seed + 2)
        hmc._integrators["leapfrog"](there, pi, hmc._action, 0.1, 10)
        pi *= -1.0
        hmc._integrators["leapfrog"](there, pi, hmc._action, 0.1, 10)
        out[name] = {
            "mean_abs_dh": float(np.mean([abs(r.delta_h) for r in results])),
            "reversibility": float(np.abs(there.u - start.u).max()),
            "unitarity": gauge.unitarity_violation(),
        }
        runs.append(lambda hmc=hmc: hmc.trajectory(start.copy()))
    for name, samples in zip(forms, timed_rounds(runs, rounds)):
        out[name]["traj_s"] = min(samples)
    return out
