"""E7 — Figure 4: gauge-generation validation.

Three series: (a) <plaquette> versus beta from our heatbath against the
strong-coupling expansion (beta/18 at small beta) and the weak-coupling
behaviour (-> 1 at large beta); (b) |dH| versus step size for leapfrog and
Omelyan at fixed trajectory length, exhibiting the eps^2 law and Omelyan's
smaller coefficient; (c) a two-flavour dynamical stream — what a trajectory
costs (solves, CG iterations, where the seconds go) and whether it is exact
(<exp(-dH)> = 1 within error).
"""

from __future__ import annotations

import numpy as np

from repro.fields import GaugeField
from repro.hmc import (
    HMC,
    TwoFlavorWilsonAction,
    WilsonGaugeAction,
    heatbath_sweep,
    kinetic_energy,
    leapfrog,
    omelyan,
    sample_momenta,
)
from repro.lattice import Lattice4D
from repro.loops import average_plaquette
from repro.telemetry import get_registry, span, telemetry_mode
from repro.util import Table

__all__ = ["e7_hmc_validation", "e7_dh_scaling", "e7_dynamical"]


def e7_hmc_validation(
    betas: list[float] | None = None,
    shape: tuple[int, int, int, int] = (4, 4, 4, 4),
    n_therm: int = 25,
    n_meas: int = 25,
    seed: int = 55,
) -> tuple[Table, list[dict]]:
    """<plaquette>(beta) from heatbath vs analytic limits."""
    betas = betas or [0.5, 1.0, 2.0, 5.7, 8.0]
    table = Table(
        "E7a / Fig. 4 — <plaquette> vs beta (heatbath, 4^4)",
        ["beta", "<plaq>", "strong-coupling beta/18", "weak-coupling 1-2/beta"],
    )
    rows = []
    rng = np.random.default_rng(seed)
    for beta in betas:
        gauge = GaugeField.hot(Lattice4D(shape), rng=rng)
        for _ in range(n_therm):
            heatbath_sweep(gauge, beta, rng)
        acc = 0.0
        for _ in range(n_meas):
            heatbath_sweep(gauge, beta, rng)
            acc += average_plaquette(gauge.u)
        plaq = acc / n_meas
        row = {
            "beta": beta,
            "plaquette": plaq,
            "strong_coupling": beta / 18.0,
            "weak_coupling": 1.0 - 2.0 / beta if beta > 2 else float("nan"),
        }
        rows.append(row)
        table.add_row([beta, plaq, row["strong_coupling"], row["weak_coupling"]])
    return table, rows


def e7_dh_scaling(
    step_sizes: list[float] | None = None,
    shape: tuple[int, int, int, int] = (2, 2, 2, 2),
    beta: float = 5.5,
    traj_length: float = 0.8,
    seed: int = 66,
) -> tuple[Table, list[dict]]:
    """|dH| vs eps at fixed trajectory length, leapfrog vs Omelyan."""
    step_sizes = step_sizes or [0.2, 0.1, 0.05, 0.025]
    action = WilsonGaugeAction(beta)
    table = Table(
        f"E7b / Fig. 4 — |dH| vs step size (traj length {traj_length}, beta={beta})",
        ["eps", "n_steps", "|dH| leapfrog", "|dH| omelyan", "ratio"],
    )
    rows = []
    for eps in step_sizes:
        n_steps = max(1, round(traj_length / eps))
        dh = {}
        for name, integ in [("leapfrog", leapfrog), ("omelyan", omelyan)]:
            gauge = GaugeField.hot(Lattice4D(shape), rng=seed)
            pi = sample_momenta(gauge, rng=seed + 1)
            h0 = kinetic_energy(pi) + action.action(gauge)
            integ(gauge, pi, action, eps, n_steps)
            dh[name] = abs(kinetic_energy(pi) + action.action(gauge) - h0)
        row = {"eps": eps, "n_steps": n_steps, **dh}
        rows.append(row)
        table.add_row(
            [eps, n_steps, dh["leapfrog"], dh["omelyan"], dh["leapfrog"] / dh["omelyan"]]
        )
    return table, rows


def e7_dynamical(
    shape: tuple[int, int, int, int] = (4, 4, 4, 4),
    beta: float = 5.6,
    mass: float = 0.5,
    step_size: float = 0.0625,
    n_steps: int = 8,
    n_traj: int = 20,
    n_warmup: int = 2,
    seed: int = 77,
) -> tuple[Table, list[dict]]:
    """Gauge + two-flavour Omelyan stream: cost and exactness per trajectory.

    Two rows, each a stream from the same seed: the action's default (kicks
    solved to ``force_tol`` 1e-7, energies continued to ``solver_tol``
    1e-10), then ``force_tol = solver_tol``, the single-grade path it
    replaced.  The defaults are the end-to-end ``hmc_stream`` workload's
    dynamical parameters.  Seconds come from the ``repro.telemetry`` spans of the run
    itself (``hmc_trajectory``, and ``pf_solve`` / ``pf_refine`` /
    ``pf_bilinear`` inside the pseudofermion action) in ``counters`` mode;
    the gauge term has no span of its own, so its force is wrapped here;
    "rest" is the integrator's link and momentum updates, the actions'
    reductions and the plaquette; "non-solve" is everything but the CG
    solves and continuations: the bilinear, the gauge force and the rest.
    """
    table = Table(
        f"E7c — dynamical trajectory ({'x'.join(map(str, shape))}, beta={beta}, m={mass}, "
        f"Omelyan {n_steps} x {step_size}, {n_traj} trajectories)",
        ["force tol", "force solves", "continuations", "CG iters/traj", "traj s", "solve s",
         "refine s", "bilinear s", "gauge force s", "rest s", "non-solve s", "<|dH|>",
         "<exp(-dH)>", "+-",
         "acceptance", "<plaq>"],
    )
    rows = []
    default = TwoFlavorWilsonAction(mass)
    for fermion_term in (default, TwoFlavorWilsonAction(mass, force_tol=default.solver_tol)):
        row = _dynamical_stream(
            fermion_term, shape, beta, step_size, n_steps, n_traj, n_warmup, seed
        )
        rows.append(row)
        table.add_row([
            row["force_tol"], float(np.mean(row["solves"])), float(np.mean(row["refines"])),
            float(np.mean(row["cg_iters"])), row["traj_s"], row["solve_s"], row["refine_s"],
            row["bilinear_s"], row["gauge_force_s"], row["rest_s"], row["non_solve_s"],
            row["mean_abs_dh"],
            row["exp_mdh"], row["exp_mdh_err"], row["acceptance"], row["plaquette"],
        ])
    return table, rows


def _dynamical_stream(
    fermion_term, shape, beta, step_size, n_steps, n_traj, n_warmup, seed
) -> dict:
    rng = np.random.default_rng(seed)
    gauge = GaugeField.hot(Lattice4D(shape), rng=rng)
    for _ in range(10):
        heatbath_sweep(gauge, beta, rng)
    gauge_term = WilsonGaugeAction(beta)
    hmc = HMC(
        [gauge_term, fermion_term],
        step_size=step_size, n_steps=n_steps, integrator="omelyan", rng=rng,
    )
    gauge_force = gauge_term.force

    def spanned_gauge_force(g):
        with span("gauge_force", cat="hmc"):
            return gauge_force(g)

    gauge_term.force = spanned_gauge_force
    hmc.run(gauge, n_warmup)

    counters = get_registry().counters
    names = ("calls/pf_solve", "calls/pf_refine", "solver/cg/iterations",
             "time/hmc_trajectory", "time/pf_solve", "time/pf_refine", "time/pf_bilinear",
             "time/gauge_force")
    trajectories = []
    with telemetry_mode("counters"):
        for _ in range(n_traj):
            before = counters()
            result = hmc.trajectory(gauge)
            after = counters()
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in names}
            trajectories.append({"result": result, **delta})

    def mean(key: str) -> float:
        return float(np.mean([t[key] for t in trajectories]))

    dh = np.array([t["result"].delta_h for t in trajectories])
    weights = np.exp(-dh)
    row = {
        "force_tol": fermion_term.force_tol,
        "solves": [int(t["calls/pf_solve"]) for t in trajectories],
        "refines": [int(t["calls/pf_refine"]) for t in trajectories],
        "cg_iters": [int(t["solver/cg/iterations"]) for t in trajectories],
        "delta_h": dh.tolist(),
        "traj_s": mean("time/hmc_trajectory"),
        "solve_s": mean("time/pf_solve"),
        "refine_s": mean("time/pf_refine"),
        "bilinear_s": mean("time/pf_bilinear"),
        "gauge_force_s": mean("time/gauge_force"),
        "mean_abs_dh": float(np.abs(dh).mean()),
        "exp_mdh": float(weights.mean()),
        "exp_mdh_err": float(weights.std(ddof=1) / np.sqrt(n_traj)),
        "acceptance": float(np.mean([t["result"].accepted for t in trajectories])),
        "plaquette": float(np.mean([t["result"].plaquette for t in trajectories])),
        "unitarity": float(gauge.unitarity_violation()),
    }
    row["non_solve_s"] = row["traj_s"] - row["solve_s"] - row["refine_s"]
    row["rest_s"] = row["non_solve_s"] - row["bilinear_s"] - row["gauge_force_s"]
    return row
