"""E11 — extension table: fermion-discretisation cost comparison.

The paper's comparators span discretisations: MILC (staggered), Chroma
(Wilson-clover), the BG/Q campaigns (domain wall).  This table puts all
four operators of this repository side by side on the same gauge
background: nominal flops/site, measured time per application, time per
*site-solve* (one propagator column to fixed tolerance), and the
degrees-of-freedom cost ratio that drives every "which fermions" decision.
"""

from __future__ import annotations

from repro.dirac import (
    CloverDirac,
    DomainWallDirac,
    StaggeredDirac,
    WilsonDirac,
    random_staggered,
)
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import cg
from repro.util import Table, timed_rounds

__all__ = ["e11_discretizations"]


def e11_discretizations(
    shape: tuple[int, int, int, int] = (8, 4, 4, 4),
    mass: float = 0.3,
    ls: int = 6,
    tol: float = 1e-8,
    seed: int = 99,
) -> tuple[Table, list[dict]]:
    lat = Lattice4D(shape)
    gauge = GaugeField.warm(lat, eps=0.3, rng=seed)

    wilson = WilsonDirac(gauge, mass)
    clover = CloverDirac(gauge, mass, csw=1.0)
    staggered = StaggeredDirac(gauge, mass)
    dwf = DomainWallDirac(gauge, mf=mass, m5=1.8, ls=ls)

    psi = random_fermion(lat, rng=seed + 1)
    chi = random_staggered(lat, rng=seed + 2)
    psi5 = dwf.random_field(rng=seed + 3)

    cases = [
        ("wilson", wilson, psi),
        ("clover", clover, psi),
        ("staggered", staggered, chi),
        (f"domain wall (Ls={ls})", dwf, psi5),
    ]

    rows = []
    for name, op, field in cases:
        t_apply = min(timed_rounds([lambda: op.apply(field)], 3)[0])
        res = cg(op.normal_op(), op.apply_dagger(field), tol=tol, max_iter=50000,
                 record_history=False)
        rows.append(
            {
                "operator": name,
                "flops_per_site": op.flops_per_apply / lat.volume,
                "t_apply": t_apply,
                "cg_iters": res.iterations,
                "t_solve": res.wall_time,
                "solve_gflops": res.flops / 1e9,
                "converged": res.converged,
            }
        )

    base = rows[0]
    table = Table(
        f"E11 — fermion discretisations on {'x'.join(map(str, shape))}, m={mass}, tol={tol:g}",
        ["operator", "flops/site", "t/apply [s]", "CG iters", "t solve [s]", "GF solve", "cost vs wilson"],
    )
    for r in rows:
        table.add_row(
            [
                r["operator"],
                r["flops_per_site"],
                r["t_apply"],
                r["cg_iters"],
                r["t_solve"],
                r["solve_gflops"],
                r["t_solve"] / base["t_solve"],
            ]
        )
    return table, rows
