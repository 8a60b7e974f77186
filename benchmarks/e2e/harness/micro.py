"""Kernel, I/O and host microbenchmarks of the traced run's set-up.

Each is a p50 over a handful of calls at the workload's own volume; none
feeds an end-to-end number.  The bandwidth calibration follows the HPC
rule: arrays at least four times the last-level cache, both sizes stated,
measured in the same run as the kernel rate it bounds — or not published.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.comm import add_halo, halo_exchange, make_comm
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, random_fermion
from repro.io import load_gauge, save_gauge
from repro.kernels import HaloStencil, dagger_halo_links, full_box, make_kernel
from repro.machine.roofline import dslash_arithmetic_intensity, dslash_bytes_per_site
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

from .protocol import llc_bytes

__all__ = ["p50_of", "kernel_suite", "io_suite", "copy_bandwidth"]

#: Touching fresh pages can stall for seconds on a lazily-backed VM; a
#: calibration that cannot allocate its arrays in this long is abandoned.
_ALLOC_DEADLINE_S = 2.0

#: Largest 12-RHS block the batched-kernel probe will allocate.
_BATCH_PROBE_LIMIT = 64 << 20


def p50_of(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _touch(n_bytes: int, deadline: float) -> np.ndarray | None:
    """Allocate and fault in ``n_bytes``; ``None`` once past the deadline."""
    try:
        a = np.empty(n_bytes // 8, dtype=np.float64)
    except MemoryError:
        return None
    chunk = (64 << 20) // 8
    for lo in range(0, a.size, chunk):
        a[lo : lo + chunk] = 1.0
        if time.perf_counter() > deadline:
            return None
    return a


def copy_bandwidth() -> dict[str, float]:
    """``machine.copy_bw_gbps`` from a copy between two arrays >= 4x the LLC.

    Bytes moved per copy are read + write.  When the cache size is unknown
    or the memory cannot be had in time the bandwidth is not published
    (reads 0) and nothing downstream divides by it.  Run it *last*: freeing
    2 GiB hands the pages back to the hypervisor, and whatever allocates
    next pays to get them again.
    """
    llc = llc_bytes()
    out = {"machine.llc_bytes": float(llc), "machine.copy_bw_gbps": 0.0,
           "machine.copy_array_bytes": 0.0}
    if llc <= 0:
        return out
    n_bytes = 4 * llc
    deadline = time.perf_counter() + _ALLOC_DEADLINE_S
    src = _touch(n_bytes, deadline)
    dst = _touch(n_bytes, deadline) if src is not None else None
    if dst is None:
        return out
    seconds = p50_of(lambda: np.copyto(dst, src), repeats=3, warmup=1)
    out["machine.copy_array_bytes"] = float(n_bytes)
    out["machine.copy_bw_gbps"] = 2.0 * n_bytes / seconds / 1e9
    return out


def kernel_suite(gauge: GaugeField, mass: float, repeats: int = 7) -> dict[str, float]:
    """The ``kernels.*`` rows at ``gauge``'s volume.

    ``repeats`` is the sample count of the cheap single-RHS kernels; the
    reference and 12-wide kernels get half, so a 16^4 caller can pass 2.
    """
    lattice = gauge.lattice
    phases = DEFAULT_FERMION_PHASES
    psi = random_fermion(lattice, rng=1)
    out_buf = np.empty_like(psi)

    fused = make_kernel("fused")
    t_fused = p50_of(lambda: fused(gauge.u, psi, phases, out=out_buf), repeats)

    u32 = gauge.u.astype(np.complex64)
    psi32 = psi.astype(np.complex64)
    out32 = np.empty_like(psi32)
    fused32 = make_kernel("fused")
    t_fp32 = p50_of(lambda: fused32(u32, psi32, phases, out=out32), repeats)

    reference = make_kernel("reference")
    t_ref = p50_of(lambda: reference(gauge.u, psi, phases, out=out_buf), max(1, repeats // 2))

    # A 12-wide block at 16^4 is 150 MB plus as much again in kernel arenas:
    # minutes of page faults on a lazily-backed VM, for a kernel the 16^4
    # workload never calls.  Measured where a workload could use it.
    t_batch = 0.0
    if 12 * psi.nbytes <= _BATCH_PROBE_LIMIT:
        block = np.stack([psi] * 12)
        block_out = np.empty_like(block)
        batch = make_kernel("fused")
        t_batch = p50_of(
            lambda: batch.apply_batch_into(gauge.u, block, phases, out=block_out),
            max(1, repeats // 2),
        )

    # The halo-reading stencil over the whole lattice as one rank's block.
    w = 1
    comm = make_comm((1, 1, 1, 1), "virtual")
    decomp = comm.decompose(lattice)
    u_halo = add_halo(decomp.scatter(gauge.u, site_axis_start=1)[0], width=w, site_axis_start=1)
    psi_halo = add_halo(decomp.scatter(psi)[0], width=w)
    halo_exchange([u_halo], comm.grid, phases=None)
    halo_exchange([psi_halo], comm.grid, phases=phases)
    udag = dagger_halo_links(u_halo.data)
    stencil = HaloStencil()
    box = full_box(decomp.local_shape)
    t_halo = p50_of(
        lambda: stencil.wilson_box_into(
            out_buf, u_halo.data, udag, psi_halo.data, w, box, mass + 4.0
        ),
        repeats,
    )

    return {
        "kernels.fused_apply_s": t_fused,
        "kernels.fused_apply_fp32_s": t_fp32,
        "kernels.reference_apply_s": t_ref,
        "kernels.fused_batch12_apply_s": t_batch,
        "kernels.batch12_speedup": 12.0 * t_fused / t_batch if t_batch else 0.0,
        "kernels.halo_stencil_apply_s": t_halo,
        "kernels.msites_per_s": lattice.volume / t_fused / 1e6,
        "kernels.gflops_nominal": WILSON_DSLASH_FLOPS_PER_SITE * lattice.volume / t_fused / 1e9,
        "kernels.bytes_per_site_computed": dslash_bytes_per_site(8),
        "kernels.ai_computed": dslash_arithmetic_intensity(8),
    }


def io_suite(gauge: GaugeField, workdir: Path, repeats: int = 3) -> dict[str, float]:
    """CRC-stamped config write and verified read at this volume."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "io_probe.npz"
    t_save = p50_of(lambda: save_gauge(path, gauge, probe=True), repeats, warmup=0)
    t_load = p50_of(lambda: load_gauge(path), repeats, warmup=0)
    return {"io.save_gauge_s": t_save, "io.load_gauge_s": t_load}
