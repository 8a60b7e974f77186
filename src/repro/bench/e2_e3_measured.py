"""E2/E3 measured mode: the scaling curves run for real on this host.

The modelled E2/E3 drivers predict the paper's BG/Q curves from a machine
spec and a communication trace.  This module runs the same experiments
*measured*: the decomposed Wilson operator executes on a real communicator
backend (one OS process per rank under ``shm``), wall-clock times are taken
best-of-``repeats``, and the resulting parallel efficiency is reported side
by side with the machine-model prediction for a host-calibrated spec — the
zero-distance validation of the model that E9 performs at one rank,
extended to real rank-parallel execution.

Efficiency against a 1-rank decomposed run says how well the ranks
scale, not whether decomposing pays: every row therefore also times the
single-domain ``fused`` operator on the same global lattice
(``t_fused``) and reports ``vs fused = t_fused / t_dslash``, the
speed-up over the best serial code.  The ranks run that same core on
their blocks, so at one rank the ratio is what scatter, gather, the
command round trip and the ghost slabs cost.

Where the host has fewer cores than ranks the measured columns show no
speedup while the model assumes one core per rank.  Every row therefore
archives how many cores the run could see (``os.cpu_count()``) and use
(``len(os.sched_getaffinity(0))``), so a gap between the two efficiency
columns can be held against the host that produced it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.comm import make_comm, resolve_comm_name
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.machine.calibrate import host_comm_spec
from repro.machine.scaling import balanced_rank_grid, strong_scaling, weak_scaling
from repro.machine.spec import MachineSpec
from repro.util import Table, timed_rounds

__all__ = [
    "MeasuredPoint",
    "e2_weak_scaling_measured",
    "e3_strong_scaling_measured",
]


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured row of a scaling table, with the model's prediction."""

    ranks: int
    grid_dims: tuple[int, int, int, int]
    global_shape: tuple[int, int, int, int]
    local_shape: tuple[int, int, int, int]
    time_dslash: float  # best-of-repeats wall time of one apply [s]
    sites_per_s: float  # global sites stenciled per second
    speedup: float  # vs the smallest rank count
    efficiency: float  # measured parallel efficiency
    modeled_efficiency: float  # machine-model prediction, same spec family
    iterations: int  # timed repeats behind ``time_dslash``
    time_fused: float  # single-domain ``fused`` apply on the same global lattice [s]
    cpus: int = os.cpu_count() or 1  # cores the host reports
    affinity: int = len(os.sched_getaffinity(0))  # cores this process may run on

    def row(self) -> list:
        return [
            self.ranks,
            "x".join(map(str, self.grid_dims)),
            "x".join(map(str, self.global_shape)),
            "x".join(map(str, self.local_shape)),
            self.time_dslash,
            self.sites_per_s / 1e6,
            self.speedup,
            self.efficiency,
            self.modeled_efficiency,
            self.time_fused,
            self.time_fused / self.time_dslash,
            self.cpus,
            self.affinity,
        ]

    @staticmethod
    def columns() -> list[str]:
        return [
            "ranks",
            "grid",
            "global",
            "local",
            "t_dslash [s]",
            "Msites/s",
            "speedup",
            "eff (meas)",
            "eff (model)",
            "t_fused [s]",
            "vs fused",
            "cpus",
            "affinity",
        ]


def _time_apply(op, psi: np.ndarray, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one operator application (after a
    warm-up: workspace buffers, worker attach, caches)."""
    out = np.empty_like(psi)
    [samples] = timed_rounds([lambda: op.apply_into(psi, out)], repeats)
    return min(samples)


def _weak_grid(nranks: int) -> tuple[int, int, int, int]:
    """Factor ``nranks`` over the axes, smallest-dimension-first."""
    dims = [1, 1, 1, 1]
    n, p = nranks, 2
    factors = []
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        mu = dims.index(min(dims))
        dims[mu] *= f
    return tuple(dims)


def _measure_points(
    configs: list[tuple[int, tuple[int, ...], tuple[int, ...]]],
    comm_name: str,
    mass: float,
    repeats: int,
    rng: int,
) -> list[tuple[int, tuple, tuple, tuple, float, float]]:
    """Time one Dslash apply, decomposed and single-domain ``fused``, for
    each ``(ranks, grid_dims, global_shape)``."""
    rows = []
    for nranks, dims, global_shape in configs:
        lattice = Lattice4D(global_shape)
        gauge = GaugeField.hot(lattice, rng=rng)
        psi = random_fermion(lattice, rng=rng + 1)
        t_fused = _time_apply(WilsonDirac(gauge, mass, kernel="fused"), psi, repeats)
        comm = make_comm(dims, comm_name)
        try:
            op = DecomposedWilsonDirac(gauge, mass, comm)
            t = _time_apply(op, psi, repeats)
        finally:
            comm.close()
        local = tuple(g // d for g, d in zip(global_shape, dims))
        rows.append((nranks, dims, global_shape, local, t, t_fused))
    return rows


def _table(title: str, points: list[MeasuredPoint]) -> Table:
    t = Table(title, MeasuredPoint.columns())
    for p in points:
        t.add_row(p.row())
    return t


def e2_weak_scaling_measured(
    local_shape: tuple[int, int, int, int] = (8, 8, 8, 8),
    rank_counts: tuple[int, ...] = (1, 2, 4),
    comm: str | None = None,
    repeats: int = 3,
    mass: float = 0.1,
    spec: MachineSpec | None = None,
    rng: int = 11,
) -> tuple[Table, list[MeasuredPoint]]:
    """Measured weak scaling: fixed local volume, global grows with ranks.

    Measured efficiency is per-rank throughput relative to one rank;
    modelled efficiency is :func:`~repro.machine.scaling.weak_scaling` on
    the host-calibrated shm spec.
    """
    comm_name = resolve_comm_name(comm)
    counts = sorted(rank_counts)
    configs = []
    for n in counts:
        dims = _weak_grid(n)
        global_shape = tuple(l * d for l, d in zip(local_shape, dims))
        configs.append((n, dims, global_shape))
    measured = _measure_points(configs, comm_name, mass, repeats, rng)

    spec = spec or host_comm_spec(comm_name, Lattice4D(local_shape))
    modeled = {p.nodes: p.efficiency for p in weak_scaling(spec, local_shape, counts)}

    base_rate = None
    points = []
    for nranks, dims, global_shape, local, t, t_fused in measured:
        volume = int(np.prod(global_shape))
        rate_per_rank = volume / t / nranks
        if base_rate is None:
            base_rate = rate_per_rank
        points.append(
            MeasuredPoint(
                ranks=nranks,
                grid_dims=dims,
                global_shape=global_shape,
                local_shape=local,
                time_dslash=t,
                sites_per_s=volume / t,
                speedup=(volume / t) / (base_rate if base_rate else 1.0),
                efficiency=rate_per_rank / base_rate,
                modeled_efficiency=modeled[nranks],
                iterations=repeats,
                time_fused=t_fused,
            )
        )
    title = (
        f"E2 (measured) — weak scaling, comm={comm_name}, "
        f"local {'x'.join(map(str, local_shape))} per rank"
    )
    return _table(title, points), points


def e3_strong_scaling_measured(
    global_shape: tuple[int, int, int, int] = (16, 16, 16, 16),
    rank_counts: tuple[int, ...] = (1, 2, 4),
    comm: str | None = None,
    repeats: int = 3,
    mass: float = 0.1,
    spec: MachineSpec | None = None,
    rng: int = 11,
) -> tuple[Table, list[MeasuredPoint]]:
    """Measured strong scaling: fixed global lattice, more ranks.

    Measured efficiency is ``speedup / (ranks / base_ranks)`` against the
    smallest rank count; modelled efficiency comes from
    :func:`~repro.machine.scaling.strong_scaling` on the host-calibrated
    shm spec, in the same table for direct comparison.
    """
    comm_name = resolve_comm_name(comm)
    counts = sorted(rank_counts)
    configs = []
    for n in counts:
        grid = balanced_rank_grid(global_shape, n)
        configs.append((n, grid.dims, tuple(global_shape)))
    measured = _measure_points(configs, comm_name, mass, repeats, rng)

    spec = spec or host_comm_spec(comm_name)
    modeled = {
        p.nodes: p.efficiency for p in strong_scaling(spec, global_shape, counts)
    }

    base_time = None
    base_ranks = None
    points = []
    volume = int(np.prod(global_shape))
    for nranks, dims, gshape, local, t, t_fused in measured:
        if base_time is None:
            base_time, base_ranks = t, nranks
        speedup = base_time / t
        points.append(
            MeasuredPoint(
                ranks=nranks,
                grid_dims=dims,
                global_shape=gshape,
                local_shape=local,
                time_dslash=t,
                sites_per_s=volume / t,
                speedup=speedup,
                efficiency=speedup / (nranks / base_ranks),
                modeled_efficiency=modeled[nranks],
                iterations=repeats,
                time_fused=t_fused,
            )
        )
    title = (
        f"E3 (measured) — strong scaling, comm={comm_name}, "
        f"global {'x'.join(map(str, global_shape))}"
    )
    return _table(title, points), points
