"""E1 — Table 1: single-node Dslash performance.

Micro-benchmarks of the hopping kernel per volume/precision/backend
(statistical, via pytest-benchmark) plus the paper-style table from the
E1 driver, comparing the ``reference`` shift-and-einsum kernel and the
``fused`` workspace-backed one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import e1_dslash_performance
from repro.bench.e1_dslash import e1_tile_sweep
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, random_fermion
from repro.kernels import make_kernel
from repro.lattice import Lattice4D
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

@pytest.mark.parametrize("kernel_name", ["reference", "fused"])
@pytest.mark.parametrize("shape", [(4, 4, 4, 4), (8, 8, 4, 4), (8, 8, 8, 8)])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
def test_dslash_kernel(benchmark, shape, dtype, kernel_name):
    lat = Lattice4D(shape)
    gauge = GaugeField.hot(lat, rng=1, dtype=dtype)
    psi = random_fermion(lat, rng=2, dtype=dtype)
    kernel = make_kernel(kernel_name)
    out = np.empty_like(psi)
    kernel(gauge.u, psi, DEFAULT_FERMION_PHASES, out=out)  # warm-up, untimed
    result = benchmark(kernel, gauge.u, psi, DEFAULT_FERMION_PHASES, out=out)
    assert result.shape == psi.shape
    benchmark.extra_info["sites"] = lat.volume
    benchmark.extra_info["kernel"] = kernel_name
    benchmark.extra_info["nominal_flops"] = lat.volume * WILSON_DSLASH_FLOPS_PER_SITE


def test_e1_table(benchmark, show):
    table, rows = benchmark.pedantic(
        e1_dslash_performance, kwargs={"repeats": 3}, rounds=1, iterations=1
    )
    show(table, "e1_dslash.txt")
    assert len(rows) > 0
    assert all(r["sites_per_s"] > 0 for r in rows)
    # Every (volume, precision) cell carries a fused-vs-reference speedup.
    fused = [r for r in rows if r["kernel"] == "fused"]
    assert fused and all(np.isfinite(r["speedup"]) for r in fused)


def test_fused_speedup_8x8x8x8_fp64(show):
    """The headline acceptance number: fused >= 2x reference at 8^4 fp64."""
    table, rows = e1_dslash_performance(volumes=[(8, 8, 8, 8)], repeats=10)
    show(table, "e1_dslash_8888_fp64.txt")
    (fused,) = [
        r for r in rows if r["kernel"] == "fused" and r["precision"] == "fp64"
    ]
    assert fused["speedup"] >= 2.0, f"fused speedup {fused['speedup']:.2f}x < 2x"



def test_e1_tiles(show):
    """The large end: the fused hop per T-slab tile at 8^4, 8x16^3, 16^4.

    Shape assertions: the rule keeps 8^4 one tile; past it a tile's arena
    is a fraction of the volume's."""
    table, rows = e1_tile_sweep()
    show(table, "e1_tiles.txt")
    picked = {(r["volume"], r["precision"]): r for r in rows if r["rule"]}
    assert picked[((8, 8, 8, 8), "fp64")]["tile_slabs"] == 8
    for (volume, prec), row in picked.items():
        whole = next(r for r in rows if (r["volume"], r["precision"]) == (volume, prec)
                     and r["tile_slabs"] == volume[0])
        if row is not whole:
            assert row["scratch_bytes"] < whole["scratch_bytes"] / 2
