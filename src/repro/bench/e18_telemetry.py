"""E18 — telemetry overhead: what does observability cost on the hot paths?

Three measurements, each at all three ``REPRO_TELEMETRY`` modes, designed
to resolve sub-percent overheads on a noisy shared host.  The end-to-end
paths are ABBA quads reduced by their paired medians
(:func:`repro.util.timing.paired`); the dispatch residue is a min.

* **Dslash (fused kernel)** — ``apply_into`` against ``__call__``.  The
  baseline bypasses even the dispatch, so the row prices the entire
  telemetry residue end to end.
* **Solver (CG on the normal equations)** — an off-mode solve against an
  instrumented one.  The baseline is ``off`` (the solver always routes
  through the instrumented dispatch), so the rows price the registry and
  span work alone.
* **Dispatch residue (null kernel)** — the same ``__call__`` vs
  ``apply_into`` comparison on an operator whose kernel does nothing, as
  the difference of the two best batches: the residue is deterministic CPU
  work, measured to nanosecond precision.  ``overhead_pct`` expresses it
  relative to the median fused Dslash application — the ratio the
  end-to-end row estimates, with no kernel noise in it.

Acceptance bars (asserted by the CI benchmark leg): ``off`` under 0.5 %
and ``counters`` under 3 % of a fused Dslash application via the dispatch
residue; ``counters`` under 3 % end to end on both paths; the end-to-end
``off`` row is a sanity corroboration (its noise floor on a busy host is
the better part of a percent, which is why the precise gate is the
residue).  ``trace`` additionally pays two clock reads per span and is
reported for reference, not gated.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro.dirac import WilsonDirac
from repro.dirac.operator import LinearOperator
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import cg
from repro.telemetry import TELEMETRY_MODES, full_reset, telemetry_mode
from repro.util import Table, paired, timed_rounds

__all__ = ["e18_telemetry_overhead"]


class _NullOp(LinearOperator):
    """Kernel-free operator: ``__call__`` minus ``apply_into`` is pure dispatch."""

    def __init__(self) -> None:
        super().__init__()
        self.flops_per_apply = 0
        self.telemetry_label = "null"
        self.telemetry_sites = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return out


def _dispatch_residues(
    calls_per_batch: int = 5000, batches: int = 7
) -> dict[str, float]:
    """Per-call telemetry dispatch cost by mode, in seconds."""
    op = _NullOp()
    x = np.zeros(4, dtype=np.complex128)
    out = np.empty_like(x)

    def raw() -> None:
        for _ in range(calls_per_batch):
            op.apply_into(x, out)

    def call() -> None:
        for _ in range(calls_per_batch):
            op(x, out=out)

    residues: dict[str, float] = {}
    for mode in TELEMETRY_MODES:
        with telemetry_mode(mode):
            raw_s, call_s = timed_rounds((raw, call), batches)
        full_reset()
        residues[mode] = max(0.0, (min(call_s) - min(raw_s)) / calls_per_batch)
    return residues


def e18_telemetry_overhead(
    shape: tuple[int, int, int, int] = (8, 8, 8, 4),
    solver_shape: tuple[int, int, int, int] = (4, 4, 4, 4),
    mass: float = 0.1,
    tol: float = 1e-6,
    n_applies: int = 256,
    repeats: int = 25,
    seed: int = 18,
) -> tuple[Table, list[dict]]:
    """Measure off/counters/trace overhead on the Dslash and CG paths.

    ``n_applies`` is the number of instrumented Dslash applications timed
    per mode (two per quad); ``repeats`` is the number of CG quads per
    instrumented mode.
    """
    rows: list[dict] = []

    # -- Dslash path: raw apply_into vs instrumented dispatch per mode --------
    lat = Lattice4D(shape)
    gauge = GaugeField.hot(lat, rng=seed)
    psi = random_fermion(lat, rng=seed + 1)
    out = np.empty_like(psi)
    op = WilsonDirac(gauge, mass, kernel="fused")
    n_quads = max(8, n_applies // 2)
    apply_s_by_mode: dict[str, float] = {}
    for mode in TELEMETRY_MODES:
        with telemetry_mode(mode):
            samples = timed_rounds(
                (lambda: op.apply_into(psi, out), lambda: op(psi, out=out)), 2 * n_quads
            )
        full_reset()  # keep counters/trace from accumulating into the next mode
        bases, diffs = paired(samples)
        base_s, diff_s = median(bases), median(diffs)
        apply_s_by_mode[mode] = base_s
        rows.append(
            {
                "path": "dslash-fused",
                "mode": mode,
                "seconds": base_s + diff_s,  # per-apply, drift-corrected
                "baseline_s": base_s,
                "overhead_pct": 100.0 * diff_s / base_s,
                "n_applies": 2 * n_quads,
                "iterations": None,
            }
        )

    # -- Dispatch residue: the same ratio with the kernel factored out --------
    apply_s = median(list(apply_s_by_mode.values()))
    for mode, residue in _dispatch_residues().items():
        rows.append(
            {
                "path": "dispatch-null",
                "mode": mode,
                "seconds": residue,
                "baseline_s": apply_s,
                "overhead_pct": 100.0 * residue / apply_s,
                "n_applies": None,
                "iterations": None,
            }
        )

    # -- Solver path: CG on the normal equations per mode ---------------------
    slat = Lattice4D(solver_shape)
    sgauge = GaugeField.warm(slat, eps=0.3, rng=seed + 2)
    sdirac = WilsonDirac(sgauge, mass)
    nop = sdirac.normal_op()
    rhs = sdirac.apply_dagger(random_fermion(slat, rng=seed + 3))
    solver_iters: dict[str, int] = {}

    def solve(mode: str):
        def run() -> None:
            with telemetry_mode(mode):
                res = cg(nop, rhs, tol=tol, max_iter=50000, guard="off")
            full_reset()
            solver_iters[mode] = res.iterations

        return run

    base_samples: list[float] = []
    solver_rows: list[dict] = []
    for mode in ("counters", "trace"):
        bases, diffs = paired(timed_rounds((solve("off"), solve(mode)), 2 * max(1, repeats)))
        base_samples.extend(bases)
        base_s, diff_s = median(bases), median(diffs)
        solver_rows.append(
            {
                "path": "cg-normal",
                "mode": mode,
                "seconds": base_s + diff_s,
                "baseline_s": base_s,
                "overhead_pct": 100.0 * diff_s / base_s,
                "n_applies": None,
                "iterations": solver_iters[mode],
            }
        )
    rows.append(
        {
            "path": "cg-normal",
            "mode": "off",
            "seconds": median(base_samples),
            "baseline_s": median(base_samples),
            "overhead_pct": 0.0,  # off IS the solver baseline
            "n_applies": None,
            "iterations": solver_iters["off"],
        }
    )
    rows.extend(solver_rows)

    table = Table(
        f"E18 — telemetry overhead ({'x'.join(map(str, shape))} Dslash, "
        f"{'x'.join(map(str, solver_shape))} CG)",
        ["path", "mode", "wall [s]", "overhead [%]"],
    )
    for r in rows:
        table.add_row([r["path"], r["mode"], r["seconds"], r["overhead_pct"]])
    return table, rows
