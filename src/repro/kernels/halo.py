"""The fused Wilson stencil on a rank's block, with interior/boundary split.

This is the per-rank kernel of the domain-decomposed Dslash, and it is
the single-domain one: a box of a rank's block goes through
:meth:`repro.kernels.fused.FusedHopping.hop_tiles` — the lattice hop's
own tile loop, transposing load, plane projection, three-term real
colour multiply, flat-copy shifts, the reference's accumulation order.
Along an axis the rank grid does not split, the rank spans the lattice
and wraps by the boundary phase, as the lattice kernel does.  Along a
split axis the slab a shift would have wrapped is read from the
halo-extended spinor block instead: ghosts its communicator filled and
phased, or interior neighbours when the box is a sub-box.

A rank's link block *is* the planes its stencil multiplies by
(:func:`rank_links`): the (dir, re|im, a, b, site) planes of its sites,
plus those of ``U_mu`` on the slab behind the low face of each split
axis, where the backward term's ghost sources sit — so no complex halo
block, no shifted or daggered copy and no per-rank cache of the links
exists, and the bytes the ABFT guard checksums are the bytes in use.

Two structural additions over the single-domain kernel:

* **Box stenciling.**  :meth:`HaloStencil.rank_box_into` evaluates
  ``diag * psi - 0.5 * hop`` on an arbitrary sub-box of the interior.
  Every operation is element-wise per site and the eight terms
  accumulate in one fixed order, so evaluating the stencil box-by-box is
  bit-for-bit identical to one full-interior sweep — the property that
  makes the overlapped schedule exact, asserted by the tier-1 tests.

* **Interior/boundary split** (:func:`split_boxes`).  Sites at distance
  >= ``width`` from every split face never read a ghost, so their stencil
  can run *before* the halo exchange; the remaining onion-peel slabs run
  after.  This is the comm/compute-overlap schedule of Chroma and the
  QCDOC software (Edwards & Joó; Boyle et al.), which the process
  backends use to stencil the deep interior while face traffic is in
  flight.

:meth:`HaloStencil.wilson_box_into` takes a complex halo-extended link
block with every axis read from its ghosts; it converts the block to the
same planes once and keeps them until :meth:`HaloStencil.invalidate`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.fused import (
    Box,
    FusedHopping,
    _box_index,
    _box_links,
    _face,
    _interior_shape,
    _slab_sources,
    full_box,
    halo_widths,
    link_planes,
    link_stack,
    plan,
    store_planes,
    ufunc_rows,
)
from repro.kernels.shifts import term_site_tables

__all__ = [
    "HaloStencil",
    "dagger_halo_links",
    "split_boxes",
    "full_box",
    "rank_link_reals",
    "rank_links",
    "write_rank_links",
]


def split_boxes(
    local_shape: tuple[int, int, int, int], width=1, split: tuple[int, ...] = (0, 1, 2, 3)
) -> tuple[Box | None, list[Box]]:
    """Partition the interior into (deep interior, boundary slabs).

    Only the ``split`` axes — those a rank reads ghosts along — are
    peeled; every box spans the others whole.  The deep interior keeps a
    margin of ``width`` (per axis, :func:`~repro.kernels.fused.halo_widths`)
    from each split face, so its stencil reads never touch a ghost.  The
    boundary is the standard onion peel: for each split axis ``mu``, a
    low and a high slab with axes ``< mu`` restricted to the deep range
    and axes ``> mu`` full — disjoint slabs whose union with the deep
    interior is the full box.

    When some split extent is ``<= 2 * width`` there is no deep interior:
    returns ``(None, [full_box])`` — everything waits for the exchange.
    """
    widths = halo_widths(width)
    deep = list(full_box(local_shape))
    for mu in split:
        n, w = local_shape[mu], widths[mu]
        if n - w <= w:
            return None, [full_box(local_shape)]
        deep[mu] = (w, n - w)
    boundary: list[Box] = []
    for mu in split:
        n, w = local_shape[mu], widths[mu]
        base = [deep[nu] if nu < mu else (0, local_shape[nu]) for nu in range(4)]
        for bounds in ((0, w), (n - w, n)):
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


# -- a rank's link block: the planes its stencil multiplies by ------------------


def rank_link_reals(local: tuple[int, ...], split: tuple[int, ...]) -> int:
    """Length of a rank's link block: ``4 * 2 * 9`` reals a site, plus one
    direction's planes on the slab behind the low face of each split axis."""
    volume = math.prod(local)
    return 72 * volume + sum(18 * volume // local[mu] for mu in split)


def rank_links(block: np.ndarray, local: tuple[int, ...], split: tuple[int, ...]) -> tuple:
    """``(links, behind)``, views of a rank's flat link block.

    ``links`` are the :func:`~repro.kernels.fused.link_planes` (4, 2, 3, 3,
    V) of the rank's interior sites; ``behind[mu]`` those of ``U_mu`` on
    the slab behind the low face for a split axis ``mu`` — where the
    backward term's ghost sources sit — and ``None`` along an axis the
    rank spans, which it wraps.
    """
    volume = math.prod(local)
    links = block[: 72 * volume].reshape(4, 2, 3, 3, volume)
    behind: list = [None] * 4
    start = 72 * volume
    for mu in split:
        size = 18 * volume // local[mu]
        behind[mu] = block[start : start + size].reshape(1, 2, 3, 3, -1)
        start += size
    return links, tuple(behind)


def write_rank_links(
    block: np.ndarray, u: np.ndarray, sites: tuple[slice, ...], split: tuple[int, ...]
) -> None:
    """Fill a rank's link block from the lattice's (4, T, Z, Y, X, 3, 3) links
    ``u``; ``sites`` are the rank's slices of the lattice axes."""
    local = tuple(s.stop - s.start for s in sites)
    links, behind = rank_links(block, local, split)
    every = (slice(None),)
    link_planes(u[every + sites], out=links)
    for mu in split:
        lo = (sites[mu].start - 1) % u.shape[1 + mu]
        slab = sites[:mu] + (slice(lo, lo + 1),) + sites[mu + 1 :]
        link_planes(u[mu : mu + 1][every + slab], out=behind[mu])


def _halo_link_planes(u_halo: np.ndarray, width: int) -> tuple:
    """``(links, behind)`` of a complex halo-extended link block, every axis
    read from its ghosts (:func:`rank_links` with all axes split)."""
    box = full_box(tuple(n - 2 * width for n in u_halo.shape[1:5]))
    every = (slice(None),)
    links = link_planes(u_halo[every + _box_index(width, box)])
    behind = tuple(
        link_planes(u_halo[mu : mu + 1][every + _box_index(width, _face(box, mu, -1))])
        for mu in range(4)
    )
    return links, behind


class HaloStencil:
    """Stateful fused Wilson stencil over halo-extended rank blocks.

    One instance per executor (master loop or worker process).  Its core
    is a :class:`~repro.kernels.fused.FusedHopping`, whose scratch is the
    calling thread's arena: a tile narrower than the first reuses its
    buffers, so solver hot loops allocate on the first application only.
    """

    name = "fused-halo"

    def __init__(self) -> None:
        self._core = FusedHopping()
        self._halo: tuple | None = None

    def invalidate(self, u_halo: np.ndarray | None = None) -> None:
        """Drop the link planes converted from the complex block ``u_halo``
        (whichever it was if None).  Call after that block is rewritten in place."""
        if self._halo is not None and (u_halo is None or self._halo[0] is u_halo):
            self._halo = None

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
        """``out[box] = diag * psi[box] - 0.5 * hop[box]`` from a complex
        halo-extended link block whose ghosts are filled.

        Every axis reads ghosts.  The block's planes are converted once and
        kept until another block comes or :meth:`invalidate`.  ``udag_halo``
        is not read (the position is kept for callers that still build the
        :func:`dagger_halo_links` table).
        """
        if not (u_halo.dtype == psi_halo.dtype == out_block.dtype):
            raise TypeError("links, input and output blocks must share one precision")
        if self._halo is None or self._halo[0] is not u_halo:
            self._halo = (u_halo,) + _halo_link_planes(u_halo, width)
        _, links, behind = self._halo
        return self.rank_box_into(out_block, links, behind, psi_halo, width, box, diag, None)

    def rank_box_into(
        self,
        out_block: np.ndarray,
        links: np.ndarray,
        behind: tuple,
        psi_halo: np.ndarray,
        width: int | tuple[int, int, int, int],
        box: Box,
        diag: float,
        phases,
    ) -> np.ndarray:
        """``out[box] = diag * psi[box] - 0.5 * hop[box]`` on an interior box.

        ``links`` and ``behind`` are a rank's link planes (:func:`rank_links`),
        read in place: ghosts along the axes ``behind`` names, a wrap by
        ``phases`` along the others.  ``psi_halo`` carries ghosts of
        ``width`` (one int for every axis or one per axis; 0 along an axis
        it wraps is enough).  ``out_block`` is the ghost-free local block.
        The combination runs on the planes, tile by tile, where ``diag``
        and ``0.5`` multiply real and imaginary parts as reals, the rule
        of every Wilson form (:func:`repro.kernels.fused.compose_form`).
        """
        if not (links.dtype == psi_halo.real.dtype and psi_halo.dtype == out_block.dtype):
            raise TypeError("links, input and output blocks must share one precision")
        X = psi_halo[None]
        dims = tuple(hi - lo for lo, hi in box)
        _, group, tile = plan(dims, 1, links.itemsize)
        stack = None
        if group == 8:
            # A call-bound box: the stacked pass, the signs of its wraps folded in.
            wrap = _slab_sources(X, width, links, behind, phases, box)
            signs = [wrap(k // 2, 2 * (k % 2) - 1) for k in range(8)]
            signs = tuple(sign if isinstance(sign, float) else 1.0 for sign in signs)
            planes = _box_links(links, _interior_shape(psi_halo.shape[:4], width), box)
            stack = link_stack(planes, planes, signs, term_site_tables(dims))
        with ufunc_rows():
            tiles = self._core.hop_tiles(X, width, box, links, behind, phases, group, tile, stack)
            for part, psi, acc in tiles:
                np.multiply(psi, diag, out=psi)
                acc *= 0.5
                psi -= acc
                store_planes(out_block[_box_index(0, part)][None], psi)
        return out_block
