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

Each level is timed against its baseline in paired rounds — base, level,
level, base (:func:`~repro.util.timing.timed_rounds`) — and reduced by
the medians of :func:`~repro.util.timing.paired`, the estimator of
:func:`~repro.util.timing.paired_ratio` and E18: a slow phase of the host
hits both halves of a quad alike, where a ratio of independent bests
followed the phase.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro.dirac import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.guard import GUARD_LEVELS, GuardPolicy, GuardedOperator
from repro.lattice import Lattice4D
from repro.solvers import cg
from repro.util import Table, paired, timed_rounds

__all__ = ["e17_guard_overhead"]


def e17_guard_overhead(
    shape: tuple[int, int, int, int] = (8, 8, 8, 4),
    solver_shape: tuple[int, int, int, int] = (8, 8, 4, 4),
    mass: float = 0.1,
    tol: float = 1e-8,
    n_applies: int = 128,
    probe_interval: int = 64,
    repeats: int = 5,
    seed: int = 17,
) -> tuple[Table, list[dict]]:
    """Measure off/detect/heal overhead on the Dslash and CG paths, each
    level in ``repeats`` paired quads against its baseline."""
    rows: list[dict] = []

    def against(base, other) -> tuple[float, float]:
        """``(base seconds, other seconds)``: the median base of the paired
        quads, and that plus the median paired difference."""
        bases, diffs = paired(timed_rounds((base, other), 2 * max(1, repeats)))
        return median(bases), median(bases) + median(diffs)

    # -- Dslash path: fused kernel, bare vs ABFT-wrapped ----------------------
    # One timed call is a batch of ``n_applies``, a whole number of probe
    # intervals, so every call pays the same probes.
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

    for level in GUARD_LEVELS:
        bare_s, t = against(batch(ops["bare"]), batch(ops[level]))
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

    for level in GUARD_LEVELS:
        base_solver_s, t = against(solve("off"), solve(level))
        rows.append(
            {
                "path": "cg-normal",
                "level": level,
                "seconds": t,
                "baseline_s": base_solver_s,
                "overhead_pct": 100.0 * (t - base_solver_s) / base_solver_s,
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
