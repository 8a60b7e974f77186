"""The fused Wilson stencil on halo-extended blocks, with interior/boundary split.

This is the per-rank kernel of the domain-decomposed Dslash, and it is
the single-domain one: a box of a rank's block goes through
:meth:`repro.kernels.fused.FusedHopping.hop_planes` — transposing load,
plane projection, three-term real colour multiply against cached link
planes, flat-copy shifts, the reference's accumulation order — as a
small lattice of its own.  A rank never wraps.  The slab each shift
would have wrapped is read from the sites just outside the box in the
halo-extended block instead: ghosts its communicator filled and phased,
or interior neighbours when the box is a sub-box.  The backward term's
``U^dag`` at those sources comes from the links the ``u`` block holds
there, so no shifted, daggered copy of the gauge block exists.

Two structural additions over the single-domain kernel:

* **Box stenciling.**  :meth:`HaloStencil.wilson_box_into` evaluates
  ``diag * psi - 0.5 * hop`` on an arbitrary sub-box of the interior.
  Every operation is element-wise per site and the eight terms
  accumulate in one fixed order, so evaluating the stencil box-by-box is
  bit-for-bit identical to one full-interior sweep — the property that
  makes the overlapped schedule exact, asserted by the tier-1 tests.

* **Interior/boundary split** (:func:`split_boxes`).  Sites at distance
  >= ``width`` from every block face never read a ghost, so their stencil
  can run *before* the halo exchange; the remaining onion-peel slabs run
  after.  This is the comm/compute-overlap schedule of Chroma and the
  QCDOC software (Edwards & Joó; Boyle et al.), which the process
  backends use to stencil the deep interior while face traffic is in
  flight.

Link planes are cached per ``(u block, box)`` on the identity of the
block; :meth:`HaloStencil.invalidate` drops them after the block is
rewritten in place (a healed link, refilled ghosts).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fused import (
    FusedHopping,
    link_planes,
    link_stack,
    plan,
    store_planes,
    ufunc_rows,
)

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

    The backward links as a table indexed at the *site*, for callers that
    want one; :class:`HaloStencil` does not (it multiplies by ``U^dag``
    at the source).  ``u_halo`` has shape ``(4,) + ext + (3, 3)`` with
    ghost-filled site axes.  The first slab along each ``mu`` has no
    ``-mu`` neighbour in the array and is left untouched.
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


def _box_index(width: int, box: Box, mu: int | None = None, i: int = 0) -> tuple:
    """Site slices of a halo-extended block over ``box``.

    Interior coordinate ``x`` lives at array index ``x + width``.  With
    ``mu``, the one slab at interior coordinate ``i`` along that axis
    (``-1`` and the box's ``hi`` lie outside it) in place of the box's range.
    """
    idx = [slice(width + lo, width + hi) for lo, hi in box]
    if mu is not None:
        idx[mu] = slice(width + i, width + i + 1)
    return tuple(idx)


class HaloStencil:
    """Stateful fused Wilson stencil over halo-extended rank blocks.

    One instance per executor (master loop or worker process): the
    workspace hands out one set of scratch buffers per box shape, so
    solver hot loops allocate on the first application only.
    """

    name = "fused-halo"

    def __init__(self) -> None:
        self._core = FusedHopping()
        self.workspace = self._core.workspace
        self._links: dict[tuple, tuple] = {}

    def invalidate(self, u_halo: np.ndarray | None = None) -> None:
        """Drop the link planes cached from ``u_halo`` (from every block if None).

        Call after a link block is rewritten in place.
        """
        for key in [k for k, hit in self._links.items() if u_halo is None or hit[0] is u_halo]:
            del self._links[key]

    def _box_links(self, u_halo: np.ndarray, width: int, box: Box) -> tuple:
        """``(links, behind, group)``: link planes of the box's sites (their
        :func:`link_stack` when :func:`plan` picks the stacked pass for
        the box), per ``mu`` those of the slab one step behind its low face,
        where the backward term's sources sit, and the plan's ``group``."""
        key = (id(u_halo), width, box)
        hit = self._links.get(key)
        if hit is None or hit[0] is not u_halo:
            every = (slice(None),)
            links = link_planes(u_halo[every + _box_index(width, box)])
            behind = tuple(
                link_planes(u_halo[mu : mu + 1][every + _box_index(width, box, mu, box[mu][0] - 1)])
                for mu in range(4)
            )
            _, group = plan(links.shape[-1], 1, links.itemsize)
            if group == 8:
                links = link_stack(links, links)
            hit = self._links[key] = (u_halo, links, behind, group)
        return hit[1:]

    def wilson_box_into(
        self,
        out_block: np.ndarray,
        u_halo: np.ndarray,
        udag_halo: np.ndarray | None,
        psi_halo: np.ndarray,
        width: int,
        box: Box,
        diag: float,
    ) -> np.ndarray:
        """``out[box] = diag * psi[box] - 0.5 * hop[box]`` on an interior box.

        ``out_block`` is the ghost-free local block.  ``udag_halo`` is not
        read (the position is kept for callers that still build the
        :func:`dagger_halo_links` table).  The combination runs on the
        planes, where ``diag`` and ``0.5`` multiply real and imaginary
        parts as the reference's complex-by-real products do.
        """
        if not (u_halo.dtype == psi_halo.dtype == out_block.dtype):
            raise TypeError("links, input and output blocks must share one precision")
        links, behind, group = self._box_links(u_halo, width, box)
        X = psi_halo[None]
        every = (slice(None),)

        def wrap(mu: int, s: int):
            # The forward term gathers from x + mu: the slab past the high
            # face.  The backward one from x - mu, behind the low face.
            i = box[mu][1] if s < 0 else box[mu][0] - 1
            return X[every + _box_index(width, box, mu, i)], None if s < 0 else behind[mu]

        with ufunc_rows():
            psi, acc = self._core.hop_planes(links, X[every + _box_index(width, box)], wrap, group)
            np.multiply(psi, diag, out=psi)
            acc *= 0.5
            psi -= acc
        store_planes(out_block[_box_index(0, box)][None], psi)
        return out_block
