"""The domain-decomposed Wilson operator — the paper's parallel data path.

Each application: scatter into rank-local halo blocks, exchange fermion
ghosts through the communicator, apply the identical spin-projected stencil
to every rank's interior, gather.  The result must agree with
:class:`~repro.dirac.WilsonDirac` to machine precision for every rank grid
— that equivalence is the core correctness test of the communication
substrate, and the recorded trace is what the machine model scales to
petascale node counts.

Two executors behind one operator:

* With a sequential :class:`~repro.comm.VirtualComm` the master loops over
  ranks itself, stenciling each halo block with the fused
  :class:`~repro.kernels.HaloStencil` into preallocated per-rank buffers
  (no allocation in the solver hot loop).
* With a process backend (:class:`~repro.comm.pool.RankPoolComm`: ``shm``,
  ``tcp``) the fermion, link-plane and result blocks are rank-resident
  and one ``run_dslash`` command makes every rank process exchange +
  stencil its own block in parallel.  Where faces are in flight (``tcp``)
  a rank stencils its deep interior while they travel and the boundary
  slabs after; elsewhere it stencils its block in one box after the
  exchange.  The master keeps no link block: it writes each rank's once
  (:meth:`~repro.comm.pool.RankPoolComm.write_blocks`) and drops it.

A fermion halo block carries ghost shells only along the axes the rank
grid splits (width 1 there, 0 elsewhere): a rank wraps the axes it spans
by the boundary phase and never reads a ghost along them.

Both executors run the same face copies and the same box-wise stencil —
the single-domain ``fused`` tile loop on each box, its slabs read from
the ghosts along split axes and wrapped by the boundary phase along the
axes a rank spans — so their results, split or not, are bit-for-bit
identical to each other, to :class:`~repro.dirac.WilsonDirac` and to the
``hopping_term_halo`` reference below.
"""

from __future__ import annotations

import numpy as np

from repro.comm import Decomposition, HaloField, add_halo, halo_exchange
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator, NormalOperator
from repro.fields import GaugeField
from repro.gammas import apply_gamma5, spin_project, spin_reconstruct
from repro.kernels import HaloStencil, full_box
from repro.kernels.fused import interior_slices
from repro.kernels.halo import rank_link_reals, rank_links, write_rank_links
from repro.kernels.workspace import aligned_empty
from repro.telemetry.instruments import record_applies
from repro.telemetry.state import STATE
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["DecomposedWilsonDirac", "hopping_term_halo"]


def _site_slices(ndim: int, s0: int, w: int, mu: int | None = None, d: int = 0) -> tuple:
    """Interior slices, optionally displaced by ``d`` along site axis ``mu``."""
    idx = [slice(None)] * ndim
    for nu in range(4):
        idx[s0 + nu] = slice(w, -w)
    if mu is not None and d != 0:
        lo = w + d
        hi = -w + d
        idx[s0 + mu] = slice(lo, hi if hi != 0 else None)
    return tuple(idx)


def hopping_term_halo(u_halo: HaloField, psi_halo: HaloField) -> np.ndarray:
    """Spin-projected hopping term reading neighbours from ghost shells.

    ``u_halo`` has the direction axis leading (site_axis_start=1);
    ``psi_halo`` is a fermion block (site_axis_start=0).  Ghosts must have
    been filled by a prior halo exchange.  Returns the interior-sized result.

    This roll-free reference is the executable specification the fused
    :class:`~repro.kernels.HaloStencil` must match bit-for-bit.
    """
    w = psi_halo.width
    psi = psi_halo.data
    u = u_halo.data
    out = np.zeros_like(psi[_site_slices(psi.ndim, 0, w)])
    for mu in range(4):
        umu = u[mu]
        u_int = umu[_site_slices(umu.ndim, 0, w)]
        # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu)
        psi_fwd = psi[_site_slices(psi.ndim, 0, w, mu, +1)]
        h = spin_project(psi_fwd, mu, -1)
        out += spin_reconstruct(np.einsum("...ab,...sb->...sa", u_int, h), mu, -1)
        # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu)
        psi_bwd = psi[_site_slices(psi.ndim, 0, w, mu, -1)]
        u_bwd = umu[_site_slices(umu.ndim, 0, w, mu, -1)]
        h = spin_project(psi_bwd, mu, +1)
        out += spin_reconstruct(np.einsum("...ba,...sb->...sa", np.conj(u_bwd), h), mu, +1)
    return out


class DecomposedWilsonDirac(LinearOperator):
    """Wilson operator evaluated SPMD over a rank grid.

    ``comm`` may be any communicator backend; the operator keys the
    rank-parallel block path on the ``supports_rank_blocks`` capability
    flag — the block API is identical whether the master maps rank memory
    (shm) or holds copies synchronised at command boundaries (tcp).
    The schedule follows what is in flight: a rank whose faces travel
    stencils the deep interior meanwhile
    (:meth:`~repro.comm.executor.RankExecutor.dslash`); every other rank,
    and the sequential executor, stencils one box after the exchange.
    """

    _WIDTH = 1

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        comm,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
    ) -> None:
        super().__init__()
        self.gauge = gauge
        self.mass = float(mass)
        self.comm = comm
        self.phases = tuple(phases)
        self.decomp: Decomposition = comm.decompose(gauge.lattice)
        self._shared = bool(getattr(comm, "supports_rank_blocks", False))
        self.flops_per_apply = (
            WILSON_DSLASH_FLOPS_PER_SITE + 8 * 12
        ) * gauge.lattice.volume
        self.telemetry_label = "dslash_wilson_spmd"
        self.telemetry_sites = gauge.lattice.volume

        local = self.decomp.local_shape
        self._split = comm.grid.decomposed_axes()
        #: Ghost widths of the fermion halo blocks: the stencil's reach along
        #: the split axes, none along the axes a rank spans and wraps.
        self._widths = tuple(self._WIDTH if mu in self._split else 0 for mu in range(4))
        self._interior_idx = interior_slices(self._widths)
        self._block_idx = [self.decomp.block_slices(r) for r in comm.grid.all_ranks()]
        self._full = full_box(local)
        self._stencil = HaloStencil()

        fermion_halo_shape = tuple(n + 2 * w for n, w in zip(local, self._widths)) + (4, 3)
        link_reals = rank_link_reals(local, self._split)
        if self._shared:
            self._u_key = comm.new_key("u")
            comm.alloc_rank_blocks(self._u_key, (link_reals,), np.float64)
            self._psi_key = comm.new_key("psi")
            psi_views = comm.alloc_blocks(self._psi_key, fermion_halo_shape, np.complex128)
            self._out_key = comm.new_key("out")
            self._out_blocks = comm.alloc_blocks(self._out_key, local + (4, 3), np.complex128)
        else:
            self._link_blocks = [aligned_empty((link_reals,), np.float64) for _ in self._block_idx]
            psi_views = [np.zeros(fermion_halo_shape, np.complex128) for _ in self._block_idx]
            self._out_blocks = [np.empty(local + (4, 3), np.complex128) for _ in self._block_idx]
        self._psi_halos = [HaloField(v, self._widths, 0) for v in psi_views]
        self._hop_key: str | None = None
        self.invalidate_kernel_cache()

    def invalidate_kernel_cache(self) -> None:
        """(Re)write the rank link blocks from ``gauge.u``.

        A rank's block holds the link planes its stencil multiplies by
        (:func:`~repro.kernels.halo.rank_links`): those of its sites and,
        per split axis, of the slab behind its low face.  Links are
        constant during a solve, so they are written once; call again
        after an *in-place* link update (the guard's heal).  On a process
        backend the master writes each rank's block and keeps none of it
        (:meth:`~repro.comm.pool.RankPoolComm.write_blocks`).
        """
        u, split = self.gauge.u, self._split
        if self._shared:
            self.comm.write_blocks(
                self._u_key, lambda r, block: write_rank_links(block, u, self._block_idx[r], split)
            )
            return
        for block, idx in zip(self._link_blocks, self._block_idx):
            write_rank_links(block, u, idx, split)

    @property
    def lattice(self):
        return self.gauge.lattice

    @property
    def rank_resident(self) -> bool:
        """Whether ``cg_spmd`` runs on the ranks (a process backend)."""
        return self._shared

    def cg_on_ranks(self, b: np.ndarray, tol: float, max_iter: int, policy) -> tuple:
        """``cg_spmd``'s solve run by the ranks on their blocks
        (:meth:`~repro.comm.pool.RankPoolComm.run_cg`).

        ``b`` is scattered into the fermion blocks, ``x`` gathered from
        them, ``M x`` from the output blocks.  The first solve allocates
        the ranks' second halo block, which the master never maps.
        Returns ``(result, |b|^2, M x)``, ``M x`` ``None`` when ``b`` is 0.
        """
        self._check_fermion(b)
        comm = self.comm
        if self._hop_key is None:
            self._hop_key = comm.new_key("hop")
            comm.alloc_rank_blocks(self._hop_key, self._psi_halos[0].data.shape, np.complex128)
        for halo, idx in zip(self._psi_halos, self._block_idx):
            np.copyto(halo.data[self._interior_idx], b[idx])
        keys = (self._psi_key, self._out_key, self._hop_key, self._u_key)
        result, b_norm2 = comm.run_cg(
            keys, self.phases, self.diag, self._widths,
            (tol, max_iter, policy), self.flops_per_apply // comm.nranks,
        )
        normal = NormalOperator(self)
        result.flops = result.operator_applies * normal.flops_per_apply
        if STATE.counting:
            record_applies(normal, result.operator_applies)  # as the virtual master counts
        result.x = np.empty_like(b)
        mx = np.empty_like(b) if b_norm2 > 0.0 else None
        for halo, block, idx in zip(self._psi_halos, self._out_blocks, self._block_idx):
            np.copyto(result.x[idx], halo.data[self._interior_idx])
            if mx is not None:
                np.copyto(mx[idx], block)
        return result, b_norm2, mx

    @property
    def diag(self) -> float:
        return self.mass + 4.0

    def _check_fermion(self, psi: np.ndarray) -> None:
        want = self.lattice.shape + (4, 3)
        if psi.shape != want:
            raise ValueError(f"fermion shape {psi.shape} != {want}")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Full decomposed cycle: scatter, exchange, stencil, gather."""
        if psi.dtype != np.complex128:
            return self._apply_reference(psi)
        return self.apply_into(psi, np.empty_like(psi))

    def apply_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        if psi.dtype != np.complex128:
            return super().apply_into(psi, out)
        return self._cycle(psi, out, np.copyto)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        if psi.dtype != np.complex128:
            return apply_gamma5(self._apply_reference(apply_gamma5(psi)))
        return self.apply_dagger_into(psi, np.empty_like(psi))

    def apply_dagger_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``M^dag = gamma5 M gamma5``, gamma5 = diag(1, 1, -1, -1) riding on
        the scatter and gather copies as a sign on spin rows 2:4."""
        if psi.dtype != np.complex128:
            return super().apply_dagger_into(psi, out)
        return self._cycle(psi, out, _copy_gamma5)

    def _cycle(self, psi: np.ndarray, out: np.ndarray, copy) -> np.ndarray:
        """Scatter ``psi`` with ``copy``, exchange + stencil, gather into ``out`` with it."""
        self._check_fermion(psi)
        for halo, idx in zip(self._psi_halos, self._block_idx):
            copy(halo.data[self._interior_idx], psi[idx])
        flops_rank = self.flops_per_apply // self.comm.nranks
        if self._shared:
            self.comm.run_dslash(
                self._psi_key,
                self._out_key,
                self._u_key,
                self.phases,
                self.diag,
                width=self._widths,
            )
            self.comm.record_compute("wilson_dslash", flops_rank)
        else:
            # Sequential executor: the exchange, then the master stencils
            # every rank's block in one box.
            self.comm.exchange(self._psi_halos, phases=self.phases)
            self.comm.record_compute("wilson_dslash", flops_rank)
            for r in self.comm.grid.all_ranks():
                self._wilson_box(r, self._full)
        for block, idx in zip(self._out_blocks, self._block_idx):
            copy(out[idx], block)
        return out

    def _wilson_box(self, rank: int, box) -> None:
        self._stencil.rank_box_into(
            self._out_blocks[rank],
            *rank_links(self._link_blocks[rank], self.decomp.local_shape, self._split),
            self._psi_halos[rank].data,
            self._widths,
            box,
            self.diag,
            self.phases,
        )

    def _apply_reference(self, psi: np.ndarray) -> np.ndarray:
        """Roll-free reference cycle (also the non-complex128 dtype path)."""
        blocks = self.decomp.scatter(psi)
        halos = [add_halo(b, width=self._WIDTH) for b in blocks]
        self.comm.exchange(halos, phases=self.phases)
        flops_rank = self.flops_per_apply // self.comm.nranks
        self.comm.record_compute("wilson_dslash", flops_rank)
        u_halos = [
            add_halo(b, width=self._WIDTH, site_axis_start=1)
            for b in self.decomp.scatter(self.gauge.u, site_axis_start=1)
        ]
        halo_exchange(u_halos, self.comm.grid)
        out_blocks = [
            self.diag * blocks[r] - 0.5 * hopping_term_halo(u_halos[r], halos[r])
            for r in self.comm.grid.all_ranks()
        ]
        return self.decomp.gather(out_blocks)


def _copy_gamma5(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst = gamma5 src`` on (..., spin, colour) fields."""
    np.copyto(dst[..., :2, :], src[..., :2, :])
    np.negative(src[..., 2:, :], out=dst[..., 2:, :])
