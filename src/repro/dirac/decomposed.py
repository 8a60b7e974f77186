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
  ``tcp``, ``mpi``) the fermion, gauge and result blocks are rank-resident
  and one ``run_dslash`` command makes every rank process exchange +
  stencil its own block in parallel, overlapping the deep-interior stencil
  with the face traffic (``overlap``, on by default there).

Both executors run the same face copies and the same box-wise stencil
arithmetic, so their results — overlapped or not — are bit-for-bit
identical to each other and to the ``hopping_term_halo`` reference below.
"""

from __future__ import annotations

import numpy as np

from repro.comm import Decomposition, HaloField, add_halo
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator
from repro.fields import GaugeField
from repro.gammas import apply_gamma5, spin_project, spin_reconstruct
from repro.kernels import HaloStencil, dagger_halo_links, full_box, split_boxes
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
    (shm) or holds copies synchronised at command boundaries (tcp/mpi).
    ``overlap`` selects the interior/boundary-split schedule (stencil the
    deep interior while the exchange is in flight); it defaults to on for
    block backends and off for the sequential one, and is bit-exact
    either way.
    """

    _WIDTH = 1

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        comm,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        overlap: bool | None = None,
    ) -> None:
        super().__init__()
        self.gauge = gauge
        self.mass = float(mass)
        self.comm = comm
        self.phases = tuple(phases)
        self.decomp: Decomposition = comm.decompose(gauge.lattice)
        self._shared = bool(getattr(comm, "supports_rank_blocks", False))
        self.overlap = self._shared if overlap is None else bool(overlap)
        self.flops_per_apply = (
            WILSON_DSLASH_FLOPS_PER_SITE + 8 * 12
        ) * gauge.lattice.volume
        self.telemetry_label = "dslash_wilson_spmd"
        self.telemetry_sites = gauge.lattice.volume

        w = self._WIDTH
        local = self.decomp.local_shape
        self._interior_idx = tuple(slice(w, -w) for _ in range(4))
        self._deep, self._boundary = split_boxes(local, w)
        self._full = [full_box(local)]
        self._stencil = HaloStencil()

        # Gauge halos are filled once: links are constant during a solve and
        # strictly periodic (no fermion phases).
        u_blocks = self.decomp.scatter(gauge.u, site_axis_start=1)
        fermion_halo_shape = tuple(n + 2 * w for n in local) + (4, 3)
        gauge_halo_shape = (4,) + tuple(n + 2 * w for n in local) + (3, 3)
        if self._shared:
            self._u_key = comm.new_key("u")
            u_views = comm.alloc_blocks(self._u_key, gauge_halo_shape, np.complex128)
            for r, b in enumerate(u_blocks):
                u_views[r][(slice(None),) + self._interior_idx] = b
            comm.exchange_shared(self._u_key, width=w, site_axis_start=1, phases=None)
            self._u_halos = [HaloField(v, w, 1) for v in u_views]
            self._udag_key = comm.new_key("udag")
            comm.alloc_blocks(self._udag_key, gauge_halo_shape, np.complex128)
            comm.dagger_shared(self._u_key, self._udag_key)
            self._psi_key = comm.new_key("psi")
            self._psi_views = comm.alloc_blocks(
                self._psi_key, fermion_halo_shape, np.complex128
            )
            self._out_key = comm.new_key("out")
            self._out_views = comm.alloc_blocks(
                self._out_key, local + (4, 3), np.complex128
            )
        else:
            self._u_halos = [add_halo(b, width=w, site_axis_start=1) for b in u_blocks]
            comm.exchange(self._u_halos, phases=None)
            self._udag = [dagger_halo_links(h.data) for h in self._u_halos]
            self._psi_halos = [
                HaloField(np.zeros(fermion_halo_shape, np.complex128), w, 0)
                for _ in range(comm.nranks)
            ]
            self._out_blocks = [
                np.empty(local + (4, 3), np.complex128) for _ in range(comm.nranks)
            ]

    @property
    def lattice(self):
        return self.gauge.lattice

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
        self._check_fermion(psi)
        flops_rank = self.flops_per_apply // self.comm.nranks
        ranks = self.comm.grid.all_ranks()
        if self._shared:
            for r in ranks:
                self._psi_views[r][self._interior_idx] = psi[
                    self.decomp.block_slices(r)
                ]
            self.comm.run_dslash(
                self._psi_key,
                self._out_key,
                self._u_key,
                self._udag_key,
                self.phases,
                self.diag,
                width=self._WIDTH,
                overlap=self.overlap,
            )
            self.comm.record_compute("wilson_dslash", flops_rank)
            return self.decomp.gather(self._out_views)

        # Sequential executor: same schedule, master loops over the ranks.
        for r in ranks:
            self._psi_halos[r].data[self._interior_idx] = psi[
                self.decomp.block_slices(r)
            ]
        if self.overlap and self._deep is not None:
            for r in ranks:
                self._wilson_box(r, self._deep)
        self.comm.exchange(self._psi_halos, phases=self.phases)
        self.comm.record_compute("wilson_dslash", flops_rank)
        boxes = self._boundary if self.overlap else self._full
        for r in ranks:
            for box in boxes:
                self._wilson_box(r, box)
        return self.decomp.gather(self._out_blocks)

    def _wilson_box(self, rank: int, box) -> None:
        self._stencil.wilson_box_into(
            self._out_blocks[rank],
            self._u_halos[rank].data,
            self._udag[rank],
            self._psi_halos[rank].data,
            self._WIDTH,
            box,
            self.diag,
        )

    def _apply_reference(self, psi: np.ndarray) -> np.ndarray:
        """Roll-free reference cycle (also the non-complex128 dtype path)."""
        blocks = self.decomp.scatter(psi)
        halos = [add_halo(b, width=self._WIDTH) for b in blocks]
        self.comm.exchange(halos, phases=self.phases)
        flops_rank = self.flops_per_apply // self.comm.nranks
        self.comm.record_compute("wilson_dslash", flops_rank)
        out_blocks = [
            self.diag * blocks[r] - 0.5 * hopping_term_halo(self._u_halos[r], halos[r])
            for r in self.comm.grid.all_ranks()
        ]
        return self.decomp.gather(out_blocks)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        return apply_gamma5(self.apply(apply_gamma5(psi)))
