"""E12 — deflation ablation: iterations vs deflated-mode count, and the
serving Wilson operator's row (the block-deflation decision)."""

from __future__ import annotations

from repro.bench.e12_deflation import e12_deflation


def test_e12_deflation(benchmark, show):
    table, rows = benchmark.pedantic(e12_deflation, rounds=1, iterations=1)
    *dense, wilson = rows
    show(table, "e12_deflation.txt", extra={"wilson": wilson})
    assert all(r["converged"] for r in rows)
    iters = [r["iterations"] for r in dense]
    # More deflated modes, fewer (or equal) iterations; full deflation of the
    # cluster at least halves the count.
    assert all(b <= a for a, b in zip(iters, iters[1:]))
    assert iters[-1] < iters[0] / 2
    # The serving operator has no low-mode cluster: a shared basis does not
    # pay for itself within the 12 right-hand sides of a cold request.
    assert wilson["breakeven_solves"] > 12
