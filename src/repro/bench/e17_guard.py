"""E17 — guard overhead: what does SDC protection cost on the hot paths?

Two measurements, one per guarded hot path, each at all three
``REPRO_GUARD`` levels on *clean* (unfaulted) data — the steady-state
price of running protected:

* **Dslash (fused kernel)** — batches of forward applications through a
  bare operator versus :class:`~repro.guard.GuardedOperator`, whose ABFT
  probes (link checksums + linearity) fire every ``probe_interval``
  applies.  The amortised overhead of ``detect`` must stay under 15 % —
  the acceptance bar for leaving guards on in production streams.
* **Solver (defensive CG)** — the E4 normal-equations solve with the
  guard's periodic true-residual replay and stagnation tracking enabled,
  versus the unguarded hot loop (which is arithmetic-identical when the
  guard is off).

``heal`` costs the same as ``detect`` on clean data (healing only runs
when a probe trips), so its row doubles as a sanity check on the
measurement noise.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.guard import GUARD_LEVELS, GuardPolicy, GuardedOperator
from repro.lattice import Lattice4D
from repro.solvers import cg
from repro.util import Table, timed_rounds

__all__ = ["e17_guard_overhead"]


def e17_guard_overhead(
    shape: tuple[int, int, int, int] = (8, 8, 8, 4),
    solver_shape: tuple[int, int, int, int] = (8, 8, 4, 4),
    mass: float = 0.1,
    tol: float = 1e-8,
    n_applies: int = 128,
    probe_interval: int = 64,
    repeats: int = 3,
    seed: int = 17,
) -> tuple[Table, list[dict]]:
    """Measure off/detect/heal overhead on the Dslash and CG paths."""
    rows: list[dict] = []

    # -- Dslash path: fused kernel, bare vs ABFT-wrapped ----------------------
    # All configurations are timed *interleaved* (bare, off, detect, heal
    # within each round, :func:`~repro.util.timing.timed_rounds`) and
    # reduced best-of-repeats, so slow phases of a noisy shared host hit
    # every configuration alike instead of biasing whichever one happened
    # to run during them.  One timed call is a batch of ``n_applies``.
    lat = Lattice4D(shape)
    gauge = GaugeField.hot(lat, rng=seed)
    psi = random_fermion(lat, rng=seed + 1)
    out = np.empty_like(psi)
    ops = {"bare": WilsonDirac(gauge, mass, kernel="fused")}
    for level in GUARD_LEVELS:
        policy = GuardPolicy(level=level, probe_interval=probe_interval)
        ops[level] = GuardedOperator(WilsonDirac(gauge, mass, kernel="fused"), policy)

    def batch(op):
        def run() -> None:
            for _ in range(n_applies):
                op(psi, out=out)

        return run

    samples = timed_rounds([batch(op) for op in ops.values()], max(1, repeats))
    best = {name: min(s) for name, s in zip(ops, samples)}
    bare_s = best["bare"]
    for level in GUARD_LEVELS:
        t = best[level]
        rows.append(
            {
                "path": "dslash-fused",
                "level": level,
                "seconds": t,
                "baseline_s": bare_s,
                "overhead_pct": 100.0 * (t - bare_s) / bare_s,
                "n_applies": n_applies,
                "probe_interval": probe_interval,
                "iterations": None,
            }
        )

    # -- Solver path: defensive CG on the E4 normal-equations system ----------
    slat = Lattice4D(solver_shape)
    sgauge = GaugeField.warm(slat, eps=0.3, rng=seed + 2)
    sdirac = WilsonDirac(sgauge, mass)
    nop = sdirac.normal_op()
    rhs = sdirac.apply_dagger(random_fermion(slat, rng=seed + 3))
    solver_iters = {}

    def solve(level: str):
        def run() -> None:
            solver_iters[level] = cg(nop, rhs, tol=tol, max_iter=50000, guard=level).iterations

        return run

    samples = timed_rounds([solve(level) for level in GUARD_LEVELS], max(1, repeats))  # interleaved
    solver_best = {level: min(s) for level, s in zip(GUARD_LEVELS, samples)}
    base_solver_s = solver_best["off"]
    for level in GUARD_LEVELS:
        rows.append(
            {
                "path": "cg-normal",
                "level": level,
                "seconds": solver_best[level],
                "baseline_s": base_solver_s,
                "overhead_pct": 100.0
                * (solver_best[level] - base_solver_s)
                / base_solver_s,
                "n_applies": None,
                "probe_interval": None,
                "iterations": solver_iters[level],
            }
        )

    table = Table(
        f"E17 — guard overhead on clean data ({'x'.join(map(str, shape))} Dslash, "
        f"{'x'.join(map(str, solver_shape))} CG, probe every {probe_interval})",
        ["path", "guard", "wall [s]", "overhead [%]"],
    )
    for r in rows:
        table.add_row([r["path"], r["level"], r["seconds"], r["overhead_pct"]])
    return table, rows
