"""The fused Wilson stencil on halo-extended blocks, with interior/boundary split.

This is the per-rank kernel of the domain-decomposed Dslash: sparse spin
projection, SU(3) colour multiply and in-place reconstruction on the
interleaved complex layout, with neighbour gathers as plain displaced
slices into the ghost-extended block — a rank never wraps, it reads the
ghost shells its communicator filled.

Two structural additions over the single-domain kernel:

* **Box stenciling.**  :meth:`HaloStencil.wilson_box_into` evaluates
  ``diag * psi - 0.5 * hop`` on an arbitrary sub-box of the interior.
  Every operation is element-wise per site (the colour contraction runs
  over a fixed 3-term index order regardless of the outer shape), so
  evaluating the stencil box-by-box is bit-for-bit identical to one
  full-interior sweep — the property that makes the overlapped schedule
  exact, asserted by the tier-1 parity tests.

* **Interior/boundary split** (:func:`split_boxes`).  Sites at distance
  >= ``width`` from every block face never read a ghost, so their stencil
  can run *before* the halo exchange; the remaining onion-peel slabs run
  after.  This is the comm/compute-overlap schedule of Chroma and the
  QCDOC software (Edwards & Joó; Boyle et al.), which the shared-memory
  backend uses to stencil the deep interior while face traffic is in
  flight.

The backward links are pre-daggered once per gauge field
(:func:`dagger_halo_links`) into a table indexed at the *site*, so the
per-apply conj-transpose of the gauge block disappears from the hot loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.color import color_mul_into
from repro.kernels.spin import project_into, reconstruct_accumulate
from repro.kernels.workspace import Workspace

__all__ = ["HaloStencil", "dagger_halo_links", "split_boxes", "full_box"]

#: A box: four per-axis ``(lo, hi)`` bounds in interior (ghost-free) coordinates.
Box = tuple[tuple[int, int], ...]


def full_box(local_shape: tuple[int, int, int, int]) -> Box:
    """The box covering the whole interior."""
    return tuple((0, int(n)) for n in local_shape)


def split_boxes(
    local_shape: tuple[int, int, int, int], width: int = 1
) -> tuple[Box | None, list[Box]]:
    """Partition the interior into (deep interior, boundary slabs).

    The deep interior keeps a margin of ``width`` from every block face,
    so its stencil reads never touch a ghost.  The boundary is the
    standard onion peel: for each axis ``mu``, a low and a high slab with
    axes ``< mu`` restricted to the deep range and axes ``> mu`` full —
    disjoint slabs whose union with the deep interior is the full box.

    When some local extent is ``<= 2 * width`` there is no deep interior:
    returns ``(None, [full_box])`` — everything waits for the exchange.
    """
    w = width
    deep: list[tuple[int, int]] = []
    for n in local_shape:
        if n - w <= w:
            return None, [full_box(local_shape)]
        deep.append((w, n - w))
    boundary: list[Box] = []
    for mu in range(4):
        base = [deep[nu] if nu < mu else (0, local_shape[nu]) for nu in range(4)]
        for bounds in ((0, w), (local_shape[mu] - w, local_shape[mu])):
            box = list(base)
            box[mu] = bounds
            boundary.append(tuple(box))
    return tuple(deep), boundary


def dagger_halo_links(u_halo: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``out[mu][x] = U_mu(x - e_mu)^dag`` on the halo-extended grid.

    ``u_halo`` has shape ``(4,) + ext + (3, 3)`` with ghost-filled site
    axes.  The first slab along each ``mu`` has no ``-mu`` neighbour in
    the array and is left untouched (never read: the stencil only indexes
    the table at interior sites, which start at ``width >= 1``).
    """
    if out is None:
        out = np.empty_like(u_halo)
    for mu in range(4):
        src_idx = [slice(None)] * u_halo[mu].ndim
        dst_idx = [slice(None)] * u_halo[mu].ndim
        src_idx[mu] = slice(None, -1)
        dst_idx[mu] = slice(1, None)
        np.conjugate(
            u_halo[mu][tuple(src_idx)].swapaxes(-1, -2), out=out[mu][tuple(dst_idx)]
        )
    return out


def _box_view(
    arr: np.ndarray, width: int, box: Box, disp_mu: int | None = None, d: int = 0
) -> np.ndarray:
    """View of a halo-extended array over ``box``, optionally displaced.

    Site axes lead; interior coordinate ``i`` lives at array index
    ``i + width``.
    """
    idx = [slice(None)] * arr.ndim
    for nu in range(4):
        lo, hi = box[nu]
        idx[nu] = slice(width + lo, width + hi)
    if disp_mu is not None and d != 0:
        lo, hi = box[disp_mu]
        idx[disp_mu] = slice(width + lo + d, width + hi + d)
    return arr[tuple(idx)]


class HaloStencil:
    """Stateful fused Wilson stencil over halo-extended rank blocks.

    One instance per executor (master loop or worker process): the
    workspace hands out one set of scratch buffers per box shape, so
    solver hot loops allocate on the first application only.
    """

    name = "fused-halo"

    def __init__(self) -> None:
        self.workspace = Workspace()

    def hop_box_into(
        self,
        acc: np.ndarray,
        u_halo: np.ndarray,
        udag_halo: np.ndarray,
        psi_halo: np.ndarray,
        width: int,
        box: Box,
    ) -> np.ndarray:
        """Accumulate the spin-projected hopping term of ``box`` onto ``acc``.

        ``acc`` is box-shaped ``(... , 4, 3)`` and must be zeroed by the
        caller; term order matches the reference ``hopping_term_halo``
        (per ``mu``: forward then backward) so the sums are bit-identical.
        """
        ws = self.workspace
        dtype = psi_halo.dtype
        hshape = acc.shape[:-2] + (2, acc.shape[-1])
        half = ws.get(hshape, dtype, "halo.half")
        uh = ws.get(hshape, dtype, "halo.uh")
        scratch = ws.get(hshape, dtype, "halo.scratch")
        for mu in range(4):
            # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu).
            project_into(half, _box_view(psi_halo, width, box, mu, +1), mu, -1)
            color_mul_into(uh, _box_view(u_halo[mu], width, box), half)
            reconstruct_accumulate(acc, uh, mu, -1, scratch)
            # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu).
            project_into(half, _box_view(psi_halo, width, box, mu, -1), mu, +1)
            color_mul_into(uh, _box_view(udag_halo[mu], width, box), half)
            reconstruct_accumulate(acc, uh, mu, +1, scratch)
        return acc

    def wilson_box_into(
        self,
        out_block: np.ndarray,
        u_halo: np.ndarray,
        udag_halo: np.ndarray,
        psi_halo: np.ndarray,
        width: int,
        box: Box,
        diag: float,
    ) -> np.ndarray:
        """``out[box] = diag * psi[box] - 0.5 * hop[box]`` on an interior box.

        ``out_block`` is the ghost-free local block; the arithmetic is the
        reference's ``diag * block - 0.5 * hop`` performed per box, which
        is bit-identical because every step is element-wise per site.
        """
        bshape = tuple(hi - lo for lo, hi in box)
        acc = self.workspace.zeros(bshape + out_block.shape[4:], psi_halo.dtype, "halo.acc")
        self.hop_box_into(acc, u_halo, udag_halo, psi_halo, width, box)
        out_idx = tuple(slice(lo, hi) for lo, hi in box)
        out_view = out_block[out_idx]
        np.multiply(_box_view(psi_halo, width, box), diag, out=out_view)
        acc *= 0.5
        out_view -= acc
        return out_block
