"""E10 — Table 5: ablations of the production tricks."""

from __future__ import annotations

from repro.bench import e10_ablations


def test_e10_ablations(benchmark, show):
    table, data = benchmark.pedantic(e10_ablations, rounds=1, iterations=1)
    show(table, "e10_ablations.txt")
    # Spin projection must not be slower than the naive kernel.
    assert data["spin_projection"]["projected_s"] <= data["spin_projection"]["naive_s"] * 1.1
    # Even-odd cuts the nominal work substantially.
    assert data["even_odd"]["eo_gflops"] < 0.8 * data["even_odd"]["full_gflops"]
    # Overlap reduces modelled time when comm is exposed.
    assert data["overlap"]["t_overlap"] < data["overlap"]["t_no_overlap"]
    # Omelyan wins at equal force budget.
    assert data["integrator"]["omelyan_dh"] < data["integrator"]["leapfrog_dh"]
    # Cayley-Hamilton on link planes: the same trajectories to rounding,
    # reversible, no further off the group than eigh, and faster.
    seed_md, planes = (data["exp_map_product_form"][k] for k in ("eigh / @", "CH / planes"))
    assert abs(planes["mean_abs_dh"] - seed_md["mean_abs_dh"]) < 1e-8
    assert max(planes["reversibility"], seed_md["reversibility"]) < 1e-11
    assert planes["unitarity"] <= seed_md["unitarity"]
    assert planes["traj_s"] < seed_md["traj_s"]
