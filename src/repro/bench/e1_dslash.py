"""E1 — Table 1: single-node Dslash performance.

Measured sites/s and nominal MF/s of the Python Wilson Dslash per local
volume and precision, next to the arithmetic intensity the roofline
assigns.  The paper's table reports the same rows for the QPX kernel; the
absolute numbers differ by the Python-vs-assembly gap, the volume and
precision *trends* are the reproduced shape.

Each (volume, precision) cell is measured for every requested kernel
backend (``reference`` shift-and-einsum, ``fused`` workspace-backed), with
each row annotated by its speedup over the reference and over the fused
default — the E1 analogue of the paper's hand-optimised-vs-baseline
kernel comparison.  Timings are best-of-``repeats`` after a warm-up
apply, which is the stable statistic on a noisy shared host.  The
warm-up wall time is reported separately per row
(``first_call_seconds``): the first apply fills workspaces and link
caches, so folding it into the steady-state timing would misstate both
numbers.

Next to each ``fused`` row sits ``fused (Schur)``: one apply of the
even-odd Schur operator on the same fields — two hops between half
lattices, nominally one Dslash — so its ``vs fused`` column reads what
even-odd preconditioning pays per apply for halving the iterations
(1.0 is the point of the method; a masked implementation reads 0.5).

:func:`e1_tile_sweep` adds the large end: the ``fused`` hop at 8^4,
8x16^3 (one rank of ``spmd_dslash``) and 16^4 run in tiles of 1, 2 and
4 T slabs and as one tile, with each arena's scratch bytes — the sweep
behind :func:`repro.kernels.fused.plan`'s tile rule, whose pick is marked.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, random_fermion
from repro.kernels import FusedHopping, full_box, make_kernel
from repro.kernels.fused import link_planes, plan, store_planes, ufunc_rows
from repro.lattice import Lattice4D
from repro.machine.roofline import dslash_arithmetic_intensity
from repro.util import Table, Timer, timed_rounds
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["e1_dslash_performance", "e1_tile_sweep", "DEFAULT_KERNELS"]

DEFAULT_VOLUMES = [(4, 4, 4, 4), (8, 4, 4, 4), (8, 8, 4, 4), (8, 8, 8, 4), (8, 8, 8, 8)]

#: Kernel backends compared by the default E1 sweep (``reference`` first:
#: the other rows' ``speedup`` is relative to it).
DEFAULT_KERNELS = ("reference", "fused")


#: Label and mass of the Schur-apply row (the mass only sets two scalars).
_SCHUR_ROW = "fused (Schur)"
_SCHUR_MASS = 0.1


def _time_apply(apply, psi: np.ndarray, repeats: int) -> tuple[float, float]:
    """(best-of-``repeats``, first-call) wall times of ``apply(out)`` (seconds).

    The first call is timed separately because it is not steady state:
    it fills workspaces and link caches.
    """
    out = np.empty_like(psi)
    with Timer() as first:
        apply(out)
    [samples] = timed_rounds([lambda: apply(out)], max(1, repeats))
    return min(samples), first.elapsed


def _cells(name: str, gauge: GaugeField, psi: np.ndarray) -> list:
    """``(label, apply(out))`` rows of one kernel on one (volume, precision) cell."""
    kernel = make_kernel(name)
    cells = [(name, lambda out: kernel(gauge.u, psi, DEFAULT_FERMION_PHASES, out=out))]
    if name == "fused":
        schur = EvenOddWilson(gauge, _SCHUR_MASS, kernel=name).schur_operator()
        cells.append((_SCHUR_ROW, lambda out: schur.apply_into(psi, out)))
    return cells


def e1_dslash_performance(
    volumes: list[tuple[int, int, int, int]] | None = None,
    repeats: int = 5,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
) -> tuple[Table, list[dict]]:
    """Run the E1 sweep; returns (table, raw rows).

    Rows carry ``kernel``, ``speedup`` (sites/s relative to the
    ``reference`` kernel of the same (volume, precision) cell),
    ``vs_fused`` (ditto relative to ``fused`` — what the Schur row is
    read against), and ``first_call_seconds`` (warm-up time, excluded
    from the steady-state timing).
    """
    volumes = volumes or DEFAULT_VOLUMES
    table = Table(
        "E1 / Table 1 — single-node Wilson Dslash performance (this host)",
        [
            "local volume",
            "sites",
            "prec",
            "kernel",
            "t/apply [s]",
            "first [s]",
            "Msites/s",
            "MF/s",
            "speedup",
            "vs fused",
            "AI [F/B]",
        ],
    )
    rows = []
    for shape in volumes:
        lat = Lattice4D(shape)
        for dtype, prec, prec_bytes in [
            (np.complex128, "fp64", 8),
            (np.complex64, "fp32", 4),
        ]:
            gauge = GaugeField.hot(lat, rng=11, dtype=dtype)
            psi = random_fermion(lat, rng=12, dtype=dtype)
            ref_sites_s = None
            fused_sites_s = None
            for name, apply in [c for k in kernels for c in _cells(k, gauge, psi)]:
                t, first = _time_apply(apply, psi, repeats)
                sites_s = lat.volume / t
                if name == "reference":
                    ref_sites_s = sites_s
                elif name == "fused":
                    fused_sites_s = sites_s
                speedup = sites_s / ref_sites_s if ref_sites_s else float("nan")
                vs_fused = sites_s / fused_sites_s if fused_sites_s else float("nan")
                flops_s = sites_s * WILSON_DSLASH_FLOPS_PER_SITE
                row = {
                    "volume": shape,
                    "sites": lat.volume,
                    "precision": prec,
                    "kernel": name,
                    "seconds": t,
                    "first_call_seconds": first,
                    "sites_per_s": sites_s,
                    "flops_per_s": flops_s,
                    "speedup": speedup,
                    "vs_fused": vs_fused,
                    "arithmetic_intensity": dslash_arithmetic_intensity(prec_bytes),
                }
                rows.append(row)
                table.add_row(
                    [
                        "x".join(map(str, shape)),
                        lat.volume,
                        prec,
                        name,
                        t,
                        first,
                        sites_s / 1e6,
                        flops_s / 1e6,
                        speedup,
                        vs_fused,
                        row["arithmetic_intensity"],
                    ]
                )
    return table, rows


TILE_VOLUMES = [(8, 8, 8, 8), (8, 16, 16, 16), (16, 16, 16, 16)]


def e1_tile_sweep(
    volumes: list[tuple[int, int, int, int]] | None = None,
    slabs: tuple[int, ...] = (1, 2, 4),
    rounds: int = 7,
) -> tuple[Table, list[dict]]:
    """The fused hop per T tile size; returns (table, raw rows).

    Each (volume, precision) cell runs its tile sizes interleaved, round by
    round (:func:`~repro.util.timing.timed_rounds`), through
    :meth:`FusedHopping.hop_tiles` on one set of link planes and the
    thread's one arena; the median of ``rounds`` after one warm-up apply.
    ``scratch`` is the arena one apply of that tile size fills from empty.
    ``rule`` marks the tile :func:`plan` picks.
    """
    table = Table(
        "E1 tiles — fused hop per T-slab tile (this host)",
        ["local volume", "sites", "prec", "tile [slabs]", "tile sites", "rule",
         "us/site", "vs one tile", "scratch [MB]"],
    )
    rows = []
    for shape in volumes or TILE_VOLUMES:
        lat = Lattice4D(shape)
        slab = lat.volume // shape[0]
        for dtype, prec in [(np.complex128, "fp64"), (np.complex64, "fp32")]:
            u = GaugeField.hot(lat, rng=11, dtype=dtype).u
            X = random_fermion(lat, rng=12, dtype=dtype)[None]
            out = np.empty_like(X)
            links = link_planes(u)
            _, group, picked = plan(shape, 1, X.real.itemsize)
            tiles = sorted({t for t in slabs if t < shape[0]} | {picked, shape[0]})
            kernel = FusedHopping()

            def apply(tile: int) -> None:
                hops = kernel.hop_tiles(
                    X, 0, full_box(shape), links, (None,) * 4, DEFAULT_FERMION_PHASES, group, tile
                )
                with ufunc_rows():
                    for box, _, acc in hops:
                        store_planes(out[(slice(None),) + tuple(slice(*b) for b in box)], acc)

            runs = [lambda t=t: apply(t) for t in tiles]
            samples = dict(zip(tiles, timed_rounds(runs, rounds)))
            scratch = {}
            for t in tiles:
                kernel.workspace.clear()
                apply(t)
                scratch[t] = kernel.workspace.nbytes
            whole = float(np.median(samples[shape[0]]))
            for t in tiles:
                seconds = float(np.median(samples[t]))
                row = {
                    "volume": shape, "sites": lat.volume, "precision": prec, "tile_slabs": t,
                    "tile_sites": t * slab, "rule": t == picked, "seconds": seconds,
                    "us_per_site": seconds / lat.volume * 1e6, "vs_one_tile": seconds / whole,
                    "scratch_bytes": scratch[t],
                }
                rows.append(row)
                table.add_row([
                    "x".join(map(str, shape)), lat.volume, prec, t, t * slab,
                    "<-" if t == picked else "", row["us_per_site"], row["vs_one_tile"],
                    row["scratch_bytes"] / 1e6,
                ])
    return table, rows
