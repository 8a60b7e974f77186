"""E7 — Fig. 4: plaquette vs beta, dH vs step size, and the dynamical trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import e7_dh_scaling, e7_dynamical, e7_hmc_validation


def test_e7_plaquette_vs_beta(benchmark, show):
    table, rows = benchmark.pedantic(e7_hmc_validation, rounds=1, iterations=1)
    show(table, "e7_plaquette.txt")
    by_beta = {r["beta"]: r for r in rows}
    # Strong coupling: <plaq> ~ beta/18.
    assert by_beta[0.5]["plaquette"] == np.float64(by_beta[0.5]["plaquette"])
    assert abs(by_beta[0.5]["plaquette"] - 0.5 / 18) < 0.02
    assert abs(by_beta[1.0]["plaquette"] - 1.0 / 18) < 0.02
    # Literature anchor: quenched beta = 5.7 plaquette ~ 0.549.
    assert abs(by_beta[5.7]["plaquette"] - 0.549) < 0.03
    # Monotone rise toward the weak-coupling limit.
    plaqs = [r["plaquette"] for r in rows]
    assert all(b > a for a, b in zip(plaqs, plaqs[1:]))


def test_e7_dh_scaling(benchmark, show):
    table, rows = benchmark.pedantic(e7_dh_scaling, rounds=1, iterations=1)
    show(table, "e7_dh_scaling.txt")
    # eps^2 law: quartering |dH| per halving of eps, within integrator noise.
    dh = [r["leapfrog"] for r in rows]
    for a, b in zip(dh, dh[1:]):
        assert 2.0 < a / b < 8.0
    # Omelyan's smaller coefficient at every step size.
    assert all(r["omelyan"] < r["leapfrog"] for r in rows)


def test_e7_dynamical(benchmark, show):
    table, rows = benchmark.pedantic(e7_dynamical, rounds=1, iterations=1)
    row, single = rows  # the default two grades, then force_tol = solver_tol
    show(table, "e7_dynamical.txt", extra={"default": row, "force_tol_1e-10": single})
    # Omelyan-8: 17 distinct (links, phi) systems, each solved once from a zero
    # guess; the two energies continue the first and the last of them.
    assert set(row["solves"]) == {17} and set(row["refines"]) == {2}
    assert set(single["solves"]) == {17} and set(single["refines"]) == {0}
    # 408 iterations per trajectory with every solve at 1e-10, 1 003 before even-odd.
    assert max(row["cg_iters"]) < 330 < min(single["cg_iters"])
    # Kicks at 1e-7 leave the energy violation where it was.
    assert abs(row["mean_abs_dh"] - single["mean_abs_dh"]) < 1e-3
    # Exactness: <exp(-dH)> = 1 within three standard errors, small |dH|.
    assert abs(row["exp_mdh"] - 1.0) < 3.0 * row["exp_mdh_err"]
    assert row["mean_abs_dh"] < 0.2 and row["acceptance"] > 0.8
    assert row["unitarity"] < 1e-10
    # The seconds a trajectory spends outside its solves, split into its parts.
    parts = row["bilinear_s"] + row["gauge_force_s"] + row["rest_s"]
    assert 0.0 < row["non_solve_s"] == pytest.approx(parts)
