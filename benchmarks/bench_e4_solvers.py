"""E4 — Table 2: solver comparison on one Wilson system."""

from __future__ import annotations

from repro.bench import e4_solver_comparison


def test_e4_solver_comparison(benchmark, show):
    table, rows = benchmark.pedantic(e4_solver_comparison, rounds=1, iterations=1)
    show(table, "e4_solvers.txt")
    by_name = {r["solver"]: r for r in rows}
    # Every solver reached the target.
    assert all(r["true_residual"] < 1e-6 for r in rows)
    # Paper shape 1: even-odd does the job in less nominal work than plain CG.
    assert by_name["eo-cg (Schur, fp64)"]["gflops"] < by_name["cg (normal eq, fp64)"]["gflops"]
    # ... and in less wall time: a Schur apply costs about one Wilson apply
    # (1.0 is the point of the method, a masked stencil costs 2.0), so halving
    # the applies shows on the clock.  Target on a quiet host: >= 1.7x.
    eo = by_name["eo-cg (Schur, fp64)"]
    assert eo["schur_over_wilson"] < 1.5
    assert eo["speedup"] > 1.2
    # Paper shape 2: mixed precision needs no more (usually fewer) fp64-
    # equivalent iterations than plain CG, and converges fully.
    assert by_name["mixed cg (fp64/fp32)"]["true_residual"] < 1e-7
