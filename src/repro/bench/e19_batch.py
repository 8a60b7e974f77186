"""E19 — multi-RHS batching throughput: batched vs looped single-RHS.

The serving economics of the batched Dslash path: apply-level
sites*RHS/s for ``apply_batch_into`` against a loop of single-RHS
applies (same operator, same kernel — the loop is the bit-parity oracle,
so the speedup is pure link/gather-traffic amortisation), and
solve-level solves/s for :func:`~repro.solvers.block.block_cg` against
sequential :func:`~repro.solvers.cg.cg`, as a function of batch width.
A normal-apply column prices ``M^dag M`` as one kernel pass
(``dirac.normal_op()``) against :class:`NormalOperator`'s two applies.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.operator import NormalOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import block_cg, cg
from repro.util import Table, Timer, timed_rounds

__all__ = ["e19_batch"]


def e19_batch(
    dims: tuple[int, int, int, int] = (6, 6, 6, 6),
    nrhs_values: tuple[int, ...] = (1, 2, 4, 8, 12),
    mass: float = 0.2,
    tol: float = 1e-8,
    kernel: str | None = "fused",
    seed: int = 7,
    apply_reps: int = 5,
    solve: bool = True,
    max_iter: int = 2000,
) -> tuple[Table, list[dict]]:
    """Batched-vs-looped throughput table over batch widths.

    Every row also carries ``apply_parity``: whether the batched apply
    reproduced the looped applies bit-for-bit (it must — the speedup is
    only meaningful against an identical computation), and
    ``normal_parity``: the same for the one-pass normal apply against the
    two-apply wrapper.
    """
    lat = Lattice4D(tuple(dims))
    gauge = GaugeField.warm(lat, rng=seed)
    dirac = WilsonDirac(gauge, mass, kernel=kernel)
    volume = lat.volume
    max_nrhs = max(nrhs_values)
    B_full = np.stack(
        [
            np.asarray(random_fermion(lat, rng=np.random.default_rng(seed + 10 + i)))
            for i in range(max_nrhs)
        ]
    )

    def _best(fn, reps: int) -> float:
        return min(timed_rounds([fn], reps)[0])  # after a warm-up: link tables, workspace

    rows = []
    for nrhs in nrhs_values:
        X = np.ascontiguousarray(B_full[:nrhs])
        out_batched = np.empty_like(X)
        out_looped = np.empty_like(X)

        t_batched = _best(lambda: dirac.apply_batch_into(X, out_batched), apply_reps)

        def _looped():
            for i in range(nrhs):
                dirac.apply_into(X[i], out_looped[i])

        t_looped = _best(_looped, apply_reps)
        parity = bool(
            np.array_equal(
                out_batched.view(np.float64), out_looped.view(np.float64)
            )
        )
        apply_speedup = t_looped / t_batched
        one_pass, two_calls = dirac.normal_op(), NormalOperator(dirac)
        t_normal = _best(lambda: one_pass.apply_batch_into(X, out_batched), apply_reps)
        t_normal2 = _best(lambda: two_calls.apply_batch_into(X, out_looped), apply_reps)
        row = {
            "nrhs": nrhs,
            "apply_batched_ms": t_batched * 1e3,
            "apply_looped_ms": t_looped * 1e3,
            "apply_site_rhs_per_s": volume * nrhs / t_batched,
            "apply_speedup": apply_speedup,
            "apply_parity": parity,
            "normal_one_pass_ms": t_normal * 1e3,
            "normal_two_calls_ms": t_normal2 * 1e3,
            "normal_parity": out_batched.tobytes() == out_looped.tobytes(),
        }

        if solve:
            nop = dirac.normal_op()
            with Timer() as t_block:
                block = block_cg(nop, X, tol=tol, max_iter=max_iter)
            with Timer() as t_seq:
                seq = [cg(nop, X[i], tol=tol, max_iter=max_iter) for i in range(nrhs)]
            row.update(
                {
                    "solve_block_s": t_block.elapsed,
                    "solve_seq_s": t_seq.elapsed,
                    "solves_per_s": nrhs / t_block.elapsed,
                    "solve_speedup": t_seq.elapsed / t_block.elapsed,
                    "iterations": [r.iterations for r in block],
                    "solve_parity": all(
                        a.iterations == b.iterations and a.x.tobytes() == b.x.tobytes()
                        for a, b in zip(block, seq)
                    ),
                    "converged": bool(all(r.converged for r in block)),
                }
            )
        rows.append(row)

    table = Table(
        f"E19 — multi-RHS batching on {tuple(dims)} "
        f"({dirac.kernel_name} kernel, mass={mass:g})",
        [
            "nrhs",
            "apply batched ms",
            "apply looped ms",
            "Msite*RHS/s",
            "apply speedup",
            "normal 1-pass ms",
            "normal 2-call ms",
        ]
        + (["block solve s", "seq solve s", "solves/s", "solve speedup"] if solve else []),
    )
    for r in rows:
        cells = [
            r["nrhs"],
            r["apply_batched_ms"],
            r["apply_looped_ms"],
            r["apply_site_rhs_per_s"] / 1e6,
            r["apply_speedup"],
            r["normal_one_pass_ms"],
            r["normal_two_calls_ms"],
        ]
        if solve:
            cells += [
                r["solve_block_s"],
                r["solve_seq_s"],
                r["solves_per_s"],
                r["solve_speedup"],
            ]
        table.add_row(cells)
    return table, rows
