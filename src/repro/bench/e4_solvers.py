"""E4 — Table 2: solver comparison on one Wilson system.

Same gauge background, same right-hand side, same target residual for
every algorithm; reported are iterations, Dslash-equivalent applications,
nominal GF, wall time, and speedup over plain fp64 CG.  The shape to
reproduce: even-odd preconditioning cuts the Dslash count by >2x, mixed
precision wins on wall time, BiCGStab is competitive at heavy mass.

The eo-CG row also carries ``t_schur / t_wilson``, one Schur apply over
one Wilson apply on the same fields (:func:`repro.util.paired_ratio`):
even-odd halves the applies, so its wall-clock speedup over CG — the
paper's "even-odd 2x+" — is that halving divided by this ratio.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import EvenOddWilson, WilsonDirac
from repro.fields import GaugeField, norm, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import bicgstab, cg, gcr, mixed_precision_cg, solve_wilson_eo
from repro.util import Table, paired_ratio

__all__ = ["e4_solver_comparison"]


def e4_solver_comparison(
    shape: tuple[int, int, int, int] = (8, 8, 4, 4),
    mass: float = 0.1,
    tol: float = 1e-8,
    gauge_eps: float = 0.3,
    seed: int = 21,
) -> tuple[Table, list[dict]]:
    """Run all solvers on ``M x = b`` and tabulate their cost."""
    lat = Lattice4D(shape)
    gauge = GaugeField.warm(lat, eps=gauge_eps, rng=seed)
    dirac = WilsonDirac(gauge, mass)
    b = random_fermion(lat, rng=seed + 1)
    b_norm = norm(b)
    rows: list[dict] = []

    def record(label: str, res, x, extra: str = "") -> None:
        true_res = norm(b - dirac.apply(x)) / b_norm
        rows.append(
            {
                "solver": label,
                "iterations": res.iterations,
                "inner_iterations": res.inner_iterations,
                "op_applies": res.operator_applies,
                "gflops": res.flops / 1e9,
                "seconds": res.wall_time,
                "true_residual": true_res,
                "schur_over_wilson": None,
                "note": extra,
            }
        )

    # 1. fp64 CG on the normal equations (the baseline everything beats).
    nop = dirac.normal_op()
    rhs = dirac.apply_dagger(b)
    # Untimed pass first: a threaded BLAS spends milliseconds on each of its
    # first few hundred dot products, which the first timed row would absorb
    # (0.7 s of a 0.25 s solve on a 2-core VM).
    cg(nop, rhs, tol=tol, max_iter=50000)
    res = cg(nop, rhs, tol=tol, max_iter=50000)
    record("cg (normal eq, fp64)", res, res.x)

    # 2. Mixed-precision defect-correction CG.
    nop32 = dirac.astype(np.complex64).normal_op()
    res = mixed_precision_cg(nop, nop32, rhs, tol=tol, max_inner=50000)
    record("mixed cg (fp64/fp32)", res, res.x)

    # 3. BiCGStab directly on M.
    res = bicgstab(dirac, b, tol=tol, max_iter=50000)
    record("bicgstab (direct)", res, res.x)

    # 4. GCR(16) directly on M.
    res = gcr(dirac, b, tol=tol, max_iter=50000, restart=16)
    record("gcr(16) (direct)", res, res.x)

    # 5. Even-odd preconditioned CG (the production configuration).
    eo = EvenOddWilson(gauge, mass)
    res = solve_wilson_eo(eo, b, tol=tol, max_iter=50000)
    record("eo-cg (Schur, fp64)", res, res.x)
    out, schur = np.empty_like(b), eo.schur_operator()
    rows[-1]["schur_over_wilson"] = paired_ratio(
        lambda: dirac.apply_into(b, out), lambda: schur.apply_into(b, out), quads=50
    )

    baseline = rows[0]["seconds"]
    baseline_gf = rows[0]["gflops"]
    table = Table(
        f"E4 / Table 2 — solvers on Wilson m={mass}, {'x'.join(map(str, shape))}, tol={tol:g}",
        ["solver", "iters", "op applies", "GF", "time [s]", "speedup", "|r|/|b|",
         "t_schur/t_wilson"],
    )
    for r in rows:
        r["speedup"] = baseline / r["seconds"] if r["seconds"] > 0 else float("inf")
        r["work_ratio"] = baseline_gf / r["gflops"] if r["gflops"] > 0 else float("inf")
        table.add_row(
            [
                r["solver"],
                r["iterations"],
                r["op_applies"],
                r["gflops"],
                r["seconds"],
                r["speedup"],
                r["true_residual"],
                "" if r["schur_over_wilson"] is None else r["schur_over_wilson"],
            ]
        )
    return table, rows
