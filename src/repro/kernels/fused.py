"""The fused Wilson hopping kernel: site-minor, split-complex, workspace-backed.

Same stencil as :func:`repro.dirac.hopping.hopping_term` (the executable
specification), laid out the way production Dslash kernels are: the site
index is the vector axis.  One transposing copy per apply turns the
interleaved ``(rhs, T, Z, Y, X, spin, colour)`` complex field into real
planes ``(re|im, spin, rhs, colour, T, Z, Y, X)``; from there on every
operation is a real ufunc over V-long contiguous rows:

* spin projection and reconstruction are adds and subtracts of whole
  planes (:mod:`repro.kernels.spin`);
* the SU(3) multiply is the explicit three-term real multiply-add
  (:mod:`repro.kernels.color`) against links cached per gauge array in
  the same layout;
* the neighbour gather is one flat offset copy plus the wrapped slab
  (:mod:`repro.kernels.shifts`), applied to the *half* spinor: the
  forward term projects at the source and multiplies by ``U_mu(x)``
  after the shift, the backward term multiplies by ``U_mu(y)^dag`` at
  the source ``y = x - mu`` and shifts the product, so one link table
  serves both and no shifted, daggered copy of the gauge field exists;
* the 8 direction terms accumulate in the reference's order.

The wrapped slab of a shift has two sources, and that is all that
separates a periodic lattice from a rank of a decomposed one
(:class:`repro.kernels.halo.HaloStencil` runs :meth:`FusedHopping.hop_tiles`
on its box).  A boundary phase of +-1 takes the field's own far face
times that sign, which commutes with everything downstream.  Anything
else is a slab of full spinors read from a field — the far face times a
general phase, multiplied the way the reference multiplies it because
that rounding does not commute, or the sites just outside a rank's box —
projected and, for the backward term, multiplied by the ``U^dag`` of
those sites before it lands in the shifted stack.

A single-RHS field, a 5-D domain-wall field and a multi-RHS block differ
only in the extent of the ``rhs`` axis, which the links broadcast over;
a width-1 block *is* a single apply.

The hopping term only connects opposite checkerboard parities, and the
sites of one parity are a ``(T, Z, Y, X/2)`` lattice of their own
(:func:`repro.kernels.shifts.parity_site_tables`).  The same 8 terms run
on it (:meth:`FusedHopping.hop_parity_planes`) with link planes kept per
parity — the forward term multiplies by the target parity's ``U_mu``,
the backward one by the source parity's ``U_mu^dag`` at the source —
the T, Z and Y shifts unchanged on the half extents, and the X shift a
copy in every other row.  That is what even-odd preconditioning runs on:
a hop from one parity to the other costs half a Dslash, and the planes
never go back to the full lattice in between.  The half lattice wraps by
a sign; under any other boundary phase the hop takes the lattice route
every kernel's parity entry has (:class:`ParityEntry`).

Scratch is streamed, and the 8 terms take one of two passes, chosen in
:func:`plan` from the hop's volume x rhs x itemsize against one
working-set constant (``_BLOCK_BYTES``).  A hop whose eight half-spinor
pairs fit it — up to 256 sites in fp64, 512 in fp32, a single rhs — is
call-bound, and takes the *stacked* pass: the eight terms on one axis of
one stack, projected by one gather, moved to their neighbours by two
site gathers (the forward terms before the multiply, the backward ones
after), multiplied in one broadcast product against an 8-term link
stack (``U`` and ``U^dag`` planes side by side, the wrap's signs folded
in, built only for such hops), reconstructed and summed by two ordered
reductions over the term axis — 13 array calls where the other pass
makes 81 on a half lattice.  A larger hop streams about a third of
those bytes through the *per-direction* pass: the half spinors of 1, 2
or 4 terms go through the multiply in one call, and a wide block is
taken in equal sub-blocks of columns.  Either pass runs one tile of T
slabs at a time (:meth:`FusedHopping.hop_tiles`; 4 096 sites in fp64),
each tile handing the next the T slabs they share — the look-ahead of
its planes, the backward product — so every slab is loaded once and the
arena holds the planes and half-spinor stacks of a tile, not of the
volume: under 5 MB instead of 44 MB at 16^4, and faster once the volume
outgrows the caches.

Every arithmetic operation is value-identical to the reference path —
signs and plane swaps are exact, and sums run in the reference's order —
so the two kernels agree bit-for-bit (asserted by the tier-1 tests).

The link-table cache is keyed on the *identity* of the gauge array, the
same freeze-at-construction contract the clover operator already uses
for its field-strength tables: operators must not mutate ``gauge.u`` in
place between applies (HMC replaces the array wholesale, which
invalidates the cache naturally).  Call :meth:`FusedHopping.invalidate`
after any in-place link update.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.kernels.color import color_mul_planes_into
from repro.kernels.shifts import half_extents, parity_site_tables, shift_into, term_site_tables
from repro.kernels.spin import (
    PROJECT_STACK,
    RECON_STACK,
    gamma5_planes,
    project_planes_into,
    reconstruct_planes_accumulate,
)
from repro.kernels.workspace import Workspace, aligned_empty, thread_workspace

__all__ = ["FusedHopping", "ParityEntry", "compose_form"]

#: Working-set target for the streamed stages, in bytes: the colour
#: multiply's scratch and the block of the field a transposing copy
#: walks stay within it, so they sit in a core's L2 whatever the volume.
#: A constant, not an option: from 256 KiB to 1.5 MiB the apply time at
#: 4^4 .. 8^4 moves by less than the run-to-run spread, and the arena
#: grows with it.
_BLOCK_BYTES = 3 << 17

#: ufunc buffer size (elements) while the kernel runs.  NumPy >= 2.3
#: gathers rows shorter than a third of its buffer (8192 by default)
#: through that buffer instead of looping over them in place whenever
#: the operands do not coalesce into one flat run — every broadcast
#: multiply here below 2731 sites.  The copies cost more than the
#: arithmetic; a small buffer makes NumPy run the rows where they lie.
#: No cast happens in the hot loop, so nothing else reads this.
_UFUNC_BUFSIZE = 64

#: A box: four per-axis ``(lo, hi)`` bounds in interior (ghost-free) coordinates.
Box = tuple[tuple[int, int], ...]


@contextmanager
def ufunc_rows():
    """Run the enclosed plane arithmetic with the small ufunc buffer."""
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def _site_minor(a: np.ndarray) -> np.ndarray:
    """(rhs, *sites, spin, colour) -> (spin, rhs, colour, *sites), as a view."""
    n = a.ndim
    return a.transpose(n - 2, 0, n - 1, *range(1, n - 2))


def full_box(local_shape: tuple[int, int, int, int]) -> Box:
    """The box covering the whole interior."""
    return tuple((0, int(n)) for n in local_shape)


def _face(box: Box, mu: int, i: int) -> Box:
    """``box`` with the one slab at interior coordinate ``i`` along ``mu`` in
    place of its range there (``-1`` and the interior's extent are ghosts)."""
    return box[:mu] + ((i, i + 1),) + box[mu + 1 :]


def halo_widths(width) -> tuple[int, int, int, int]:
    """The ghost width of a halo-extended block on each site axis: an ``int``
    is every axis', a sequence one per axis (0 where the block has no ghosts)."""
    if isinstance(width, (int, np.integer)):
        return (int(width),) * 4
    return tuple(int(w) for w in width)


def interior_slices(width) -> tuple[slice, ...]:
    """Site slices of the interior of a block whose ghost widths are ``width``."""
    return tuple(slice(w, -w if w else None) for w in halo_widths(width))


def _box_index(width, box: Box) -> tuple:
    """Site slices of a block over ``box``: interior coordinate ``x`` lives at
    array index ``x + width`` (per axis, :func:`halo_widths`)."""
    return tuple(slice(w + lo, w + hi) for w, (lo, hi) in zip(halo_widths(width), box))


def _interior_shape(shape: tuple, width) -> tuple:
    """The interior extents of the site axes ``shape`` with ghosts ``width``."""
    return tuple(n - 2 * w for n, w in zip(shape, halo_widths(width)))


def load_planes(planes: np.ndarray, block: np.ndarray) -> None:
    """``planes`` (re|im, spin, rhs, colour, *sites) = the complex ``block``, transposed."""
    planes[0] = _site_minor(block.real)
    planes[1] = _site_minor(block.imag)


def _plane_view(block: np.ndarray) -> np.ndarray:
    """The (re|im, spin, rhs, colour, *sites) planes of a complex (rhs, *sites,
    4, 3) block as a strided view: :func:`load_planes` without the copy."""
    reals = block.view(block.real.dtype).reshape(block.shape + (2,))
    n = reals.ndim
    return reals.transpose(n - 1, n - 3, 0, n - 2, *range(1, n - 3))


def store_planes(block: np.ndarray, planes: np.ndarray) -> None:
    """The inverse of :func:`load_planes`: complex ``block`` = ``planes``."""
    _site_minor(block.real)[...] = planes[0]
    _site_minor(block.imag)[...] = planes[1]


def compose_form(
    wilson, X: np.ndarray, out: np.ndarray, dagger: bool = False, normal: bool = False,
    ws: Workspace | None = None,
) -> np.ndarray:
    """``M^dag X`` (``dagger``) or ``M^dag M X`` (``normal``) into ``out``, composed
    through complex arrays around ``wilson(src, dst)``, which writes ``M src``.

    One rule for every Wilson form ``M x = diag x - hop(x) / 2``, on the
    fused kernel's planes (:func:`_wilson_planes`) and in the reference
    kernel alike: the diagonal multiplies real and imaginary parts as
    reals, and gamma5 (``M^dag = gamma5 M gamma5``) negates spins 2-3.  A
    complex-by-real multiply forms ``a d - b 0`` and would turn some -0.0
    into +0.0.  Scratch comes from ``ws`` (``None``: allocated).
    """
    ws = Workspace() if ws is None else ws
    if dagger and not normal:
        g5 = ws.get(X.shape, X.dtype, "form.g5")
        np.copyto(g5, X)
        X = _gamma5(g5)
    y = ws.get(X.shape, X.dtype, "form.y") if normal else out
    wilson(X, y)
    if normal:
        wilson(_gamma5(y), out)
    if dagger or normal:
        _gamma5(out)
    return out


def _gamma5(a: np.ndarray) -> np.ndarray:
    """``a`` = gamma5 ``a``, in place on a complex (..., 4, 3) field."""
    np.negative(a[..., 2:4, :], out=a[..., 2:4, :])
    return a


def _wilson_planes(acc: np.ndarray, psi: np.ndarray, diag: float) -> np.ndarray:
    """``acc = -acc / 2 + diag psi`` on real planes, ``psi`` scaled in place."""
    acc *= -0.5
    psi *= psi.dtype.type(diag)
    acc += psi
    return acc


def link_planes(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``links[g, re|im, a, b, site]``, contiguous, of a (G, *sites, 3, 3) link array or view."""
    volume = u[0].size // 9
    links = aligned_empty((len(u), 2, 3, 3, volume), u.real.dtype) if out is None else out
    for g in range(len(u)):
        sites = u[g].reshape(volume, 3, 3).transpose(1, 2, 0)
        links[g, 0] = sites.real
        links[g, 1] = sites.imag
    return links


def parity_link_planes(u: np.ndarray) -> np.ndarray:
    """``links[parity, g, re|im, a, b, site]``: :func:`link_planes` of each
    parity's sites of a (4, T, Z, Y, X, 3, 3) link array, in parity order."""
    sites, _ = parity_site_tables(u.shape[1:5])
    flat = u.reshape(4, -1, 3, 3)
    links = aligned_empty((2, 4, 2, 3, 3, sites.shape[1]), u.real.dtype)
    for parity, of_parity in enumerate(sites):
        link_planes(flat[:, of_parity], out=links[parity])
    return links


def link_stack(
    fwd: np.ndarray, bwd: np.ndarray, signs: tuple = (1.0,) * 8, sites: tuple | None = None
) -> np.ndarray:
    """``stack[k, re|im, a, b, site]``: the links of the stacked pass's eight terms.

    In the reference's order f0, b0, ..., f3, b3: the forward terms'
    ``U_mu`` (from ``fwd``) and the backward terms' ``U_mu^dag`` (from
    ``bwd``), :func:`link_planes` of both, the daggered ones transposed
    with the imaginary plane negated, which is exact.

    ``signs[k]``, term ``k``'s boundary phase when it is +-1, multiplies
    the links of the sites whose neighbour gather (``sites``,
    :func:`repro.kernels.shifts.term_site_tables`) crossed the boundary —
    at the target for a forward term, at the source for a backward one,
    where its product is formed.  A sign commutes exactly with every
    product and sum after it, so the stacked pass needs no multiply for it.
    """
    stack = aligned_empty((8,) + fwd.shape[1:], fwd.dtype)
    stack[0::2] = fwd
    stack[1::2] = bwd.swapaxes(2, 3)
    np.negative(stack[1::2, 1], out=stack[1::2, 1])
    for k, sign in enumerate(signs):
        if sign != 1.0:
            source, crossed = sites
            stack[k][..., crossed[k] if k % 2 == 0 else source[k][crossed[k]]] *= sign
    return stack


def plan(dims: tuple[int, ...], nrhs: int, itemsize: int) -> tuple[int, int, int]:
    """``(step, group, tile)``: rhs columns per pass, direction terms per
    multiply call and T slabs per tile of a hop over ``dims`` sites.

    As many half-spinor pairs (one per term and rhs: the per-direction
    colour multiply's scratch, 24 reals a site) as meet the working-set
    target.  Columns beyond that go through in equal sub-blocks; when
    all fit with room to spare, 2 or 4 terms share one multiply call.
    When the pairs of all eight terms fit, ``group`` is 8: the stacked
    pass, which runs the eight terms in a fixed number of calls and
    streams about three times the bytes — faster while a hop is
    call-bound (up to 256 sites in fp64, 512 in fp32), slower beyond.

    A pass runs ``tile`` T slabs at a time: the most whose half spinors
    (12 reals a site and column) meet the target, at least one — 4 096
    sites in fp64 and 8 192 in fp32 with one rhs.  The scratch of the
    eight terms then scales with a tile, not with the volume; every hop
    small enough for the stacked pass is one tile.
    """
    volume = math.prod(dims)
    pairs = _BLOCK_BYTES // (24 * volume * itemsize)
    step = _equal_parts(nrhs, pairs)
    group = next(g for g in (8, 4, 2, 1) if g == 1 or pairs >= g * step)
    tile = _BLOCK_BYTES // (12 * itemsize * step * (volume // dims[0]))
    return step, group, min(max(1, tile), dims[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: a cached table every caller shares."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _stack_signs(dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The +-1 tables of :data:`PROJECT_STACK` and :data:`RECON_STACK` in ``dtype``."""
    return _frozen(PROJECT_STACK[1].astype(dtype)), _frozen(RECON_STACK[1].astype(dtype))


@lru_cache(maxsize=None)
def _stack_gathers(dims: tuple, parity: int | None, rows: int) -> tuple:
    """The stacked pass's two neighbour gathers over (term, row, site) stacks.

    ``(before, after)``, one per side of the colour multiply: the forward
    terms gather before it, the backward ones after, and the other terms
    keep their sites.  Each is the flat ``take`` index over ``rows`` rows
    of :func:`term_site_tables` sites per term.
    """
    source, _ = term_site_tables(dims, parity)
    volume = source.shape[1]
    base = np.arange(8 * rows).reshape(8, rows, 1) * volume
    gathers = []
    for side in (0, 1):
        # Term k reads its neighbours on side k % 2 and keeps its sites on the other.
        sites = np.where((np.arange(8) % 2 == side)[:, None], source, np.arange(volume))
        gathers.append(_frozen((base + sites[:, None]).reshape(-1)))
    return tuple(gathers)


def _equal_parts(n: int, limit: int) -> int:
    """Part size that splits ``n`` into the fewest equal parts of at most ``limit``."""
    count = -(-n // max(1, limit))
    return -(-n // count)


def _box_links(links: np.ndarray, local: tuple, box: Box) -> np.ndarray:
    """The planes of ``links`` (G, 2, 3, 3, V) over the sites of ``box`` of the
    ``local`` extents: a view when they are one run of sites (a T range of
    whole slabs), a copy otherwise."""
    if all(b == (0, n) for b, n in zip(box[1:], local[1:])):
        slab = links.shape[-1] // local[0]
        return links[..., box[0][0] * slab : box[0][1] * slab]
    sites = links.reshape(links.shape[:4] + tuple(local))[(slice(None),) * 4 + _box_index(0, box)]
    return sites.reshape(links.shape[:4] + (-1,))


def _slab_sources(X: np.ndarray, width, links: np.ndarray, behind, phases, box: Box):
    """``wrap(mu, s)`` of :meth:`FusedHopping.hop_planes` for ``box`` of a block.

    ``X`` is an (rhs, T, Z, Y, X, 4, 3) block whose interior starts at
    ``width`` on each site axis (:func:`halo_widths`), ``links`` the
    :func:`link_planes` of that interior.  The slab a shift gathers from
    outside the box is an interior one next to it, with phase 1; past the interior's face along
    ``mu`` it is the ghost slab when ``behind[mu]`` holds the planes of
    ``U_mu`` on the ghost slab behind the low face (where the backward
    term's sources sit), and the interior's own far face times
    ``phases[mu]`` when it is ``None`` — a sign where the box spans the
    axis, the wrapped slab otherwise.
    """
    local = _interior_shape(X.shape[1:5], width)
    every = (slice(None),)

    def slab_links(mu: int, i: int) -> np.ndarray:
        planes, sites = links[mu : mu + 1], local
        if i < 0:
            planes, sites, i = behind[mu], local[:mu] + (1,) + local[mu + 1 :], 0
        return _box_links(planes, sites, _face(box, mu, i))

    def wrap(mu: int, s: int):
        # The forward term gathers from x + mu: the slab past the high face.
        # The backward one from x - mu, behind the low face.
        n, (lo, hi) = local[mu], box[mu]
        i = hi if s < 0 else lo - 1
        sign = 1.0
        if behind[mu] is None and not 0 <= i < n:
            phase = phases[mu]
            if phase == 1 or phase == -1:
                sign = float(phase.real)  # its own conjugate
                if hi - lo == n:
                    return sign
            else:
                sign = None
            i %= n
        spinors = X[every + _box_index(width, _face(box, mu, i))]
        if sign is None:
            # A general phase multiplies the full spinors, as the reference does.
            phase = phases[mu] if s < 0 else np.conj(phases[mu])
            spinors, sign = (spinors * phase).astype(X.dtype, copy=False), 1.0
        return spinors, None if s < 0 else slab_links(mu, i), sign

    return wrap


class ParityEntry:
    """The parity entry every registered kernel carries.

    Even-odd preconditioning runs on the :func:`load_planes` planes of one
    parity's sites: :meth:`parity_planes` gathers them, :meth:`store_parity_planes`
    writes them back.  :meth:`hop_parity_planes` here is the *lattice
    route* around the subclass's ``apply_batch_into`` — the definition of
    a parity hop, which :class:`FusedHopping` replaces under +-1 phases.
    The planes come from the subclass's ``workspace``.
    """

    workspace: Workspace

    def invalidate(self) -> None:
        """Drop cached link tables after an in-place gauge update (none here)."""

    def parity_planes(self, X: np.ndarray, parity: int, slot: str) -> np.ndarray:
        """Workspace planes ``slot`` of the sites of one parity of an (rhs, T, Z, Y, X, 4, 3) block."""
        nrhs, dims = X.shape[0], X.shape[1:5]
        sites, _ = parity_site_tables(dims)
        gathered = self.workspace.get(
            (nrhs,) + half_extents(dims) + (4, 3), X.dtype, "parity.sites"
        )
        # mode="clip": np.take buffers ``out`` under the default "raise".
        np.take(
            X.reshape(nrhs, -1, 4, 3),
            sites[parity],
            axis=1,
            out=gathered.reshape(nrhs, -1, 4, 3),
            mode="clip",
        )
        return self._load(gathered, slot)

    def hop_parity_planes(
        self, u: np.ndarray, psi: np.ndarray, phases, parity: int, slot: str
    ) -> np.ndarray:
        """Hopping term onto the sites of ``parity``, from the planes ``psi`` of the other one.

        ``psi`` and the result (workspace planes ``slot``) are laid out as
        :meth:`parity_planes` lays them out; call under :func:`ufunc_rows`.
        The lattice route: ``psi`` stored on a lattice zeroed elsewhere, the
        kernel's own full hop, the sites of ``parity`` gathered.  The hop
        onto them reads the other parity only, so the zeros change nothing.
        """
        _check_parity_planes(u, psi)
        shape = (psi.shape[2],) + u.shape[1:5] + (4, 3)
        lattice = self.workspace.get(shape, u.dtype, "parity.lattice")
        self.store_parity_planes(lattice, (None, psi) if parity == 0 else (psi, None))
        hop = self.workspace.get(shape, u.dtype, "parity.hop")
        self.apply_batch_into(u, lattice, phases, out=hop)
        return self.parity_planes(hop, parity, slot)

    def store_parity_planes(self, out: np.ndarray, planes: tuple) -> np.ndarray:
        """Complex (rhs, T, Z, Y, X, 4, 3) block ``out`` from the ``planes`` of its
        (even, odd) sites; ``None`` in place of either stores zeros there."""
        nrhs, dims = out.shape[0], out.shape[1:5]
        sites, _ = parity_site_tables(dims)
        ws = self.workspace
        # Indexed stores need the flat site axis as a view.
        dense = out if out.flags.c_contiguous else ws.get(out.shape, out.dtype, "parity.dense")
        flat = dense.reshape(nrhs, -1, 4, 3)
        if any(of_parity is None for of_parity in planes):
            dense.fill(0)  # one pass, cheaper than an indexed store of zeros
        for parity, of_parity in enumerate(planes):
            if of_parity is None:
                continue
            if of_parity.dtype != out.real.dtype:
                raise TypeError(
                    f"field planes ({of_parity.dtype}) and output ({out.dtype}) must "
                    "share one precision; cast the operator with astype() instead"
                )
            scattered = ws.get((nrhs,) + half_extents(dims) + (4, 3), out.dtype, "parity.sites")
            store_planes(scattered, of_parity)
            flat[:, sites[parity]] = scattered.reshape(nrhs, -1, 4, 3)
        if dense is not out:
            np.copyto(out, dense)
        return out

    def _load(self, X: np.ndarray, slot: str) -> np.ndarray:
        """Workspace planes ``slot`` of one (rhs, *sites, 4, 3) block."""
        nrhs, dims = X.shape[0], X.shape[1:5]
        psi = self.workspace.get((2, 4, nrhs, 3) + dims, X.real.dtype, slot)
        self._load_into(psi, X)
        return psi

    @staticmethod
    def _load_into(psi: np.ndarray, X: np.ndarray) -> None:
        """:func:`load_planes` of the (rhs, *sites, 4, 3) block ``X`` into ``psi``."""
        # Time blocks keep the strided side of the transposing copy in cache.
        t_block = max(1, _BLOCK_BYTES // max(1, X[:, :1].size * X.itemsize))
        for t0 in range(0, X.shape[1], t_block):
            t = slice(t0, t0 + t_block)
            load_planes(psi[:, :, :, :, t], X[:, t])


def _check_parity_planes(u: np.ndarray, psi: np.ndarray) -> None:
    """Refuse half-lattice planes of another precision or lattice than the links."""
    if u.real.dtype != psi.dtype:
        raise TypeError(
            f"links ({u.dtype}) and field planes ({psi.dtype}) must share one "
            "precision; cast the operator with astype() instead"
        )
    if psi.shape[4:] != half_extents(u.shape[1:5]):
        raise ValueError(
            f"half-lattice planes {psi.shape[4:]} do not match the gauge field {u.shape[1:5]}"
        )


def _wraps_by_sign(phases) -> bool:
    """Whether every boundary phase is +-1, which the half lattice and the
    planes of a one-tile form take as a sign; any other phase multiplies
    full spinors the way the reference does."""
    return all(phase == 1 or phase == -1 for phase in phases)


class FusedHopping(ParityEntry):
    """Stateful fused hopping kernel (cached link planes, per-thread scratch).

    Instances are cheap; each operator owns one for its link planes.  The
    scratch is the calling thread's arena (:func:`thread_workspace`),
    shared by every fused kernel on that thread: a buffer this kernel
    returns stays valid until the next call on the thread that asks for
    the same slot.
    """

    name = "fused"

    def __init__(self) -> None:
        self.invalidate()

    @property
    def workspace(self) -> Workspace:
        """The calling thread's scratch arena."""
        return thread_workspace()

    def invalidate(self) -> None:
        """Drop the cached link tables (after an in-place gauge update)."""
        self._u_ref: np.ndarray | None = None
        self._links: np.ndarray | None = None
        self._parity_u_ref: np.ndarray | None = None
        self._parity_links: np.ndarray | None = None
        self._stacks: dict[tuple, tuple] = {}

    def _link_planes(self, u: np.ndarray) -> np.ndarray:
        """:func:`link_planes` of the four directions, cached per gauge array."""
        if self._u_ref is not u:
            self._links = link_planes(u)
            self._u_ref = u
        return self._links

    def _parity_link_planes(self, u: np.ndarray) -> np.ndarray:
        """:func:`parity_link_planes`, cached per gauge array."""
        if self._parity_u_ref is not u:
            self._parity_links = parity_link_planes(u)
            self._parity_u_ref = u
        return self._parity_links

    def _link_stacks(self, u: np.ndarray, phases, parity: bool) -> np.ndarray:
        """:func:`link_stack` of the lattice, or per target parity of the half
        lattices, with the signs among ``phases`` folded in; cached per gauge
        array and phases, built by the first stacked hop."""
        key = (parity, tuple(phases))
        hit = self._stacks.get(key)
        if hit is None or hit[0] is not u:
            signs = tuple(
                float(phase.real) if phase == 1 or phase == -1 else 1.0
                for phase in phases
                for _ in (0, 1)
            )
            dims = u.shape[1:5]
            if parity:
                links = self._parity_link_planes(u)
                stack = aligned_empty((2, 8) + links.shape[2:], links.dtype)
                for p in (0, 1):
                    stack[p] = link_stack(links[p], links[1 - p], signs, term_site_tables(dims, p))
            else:
                links = self._link_planes(u)
                stack = link_stack(links, links, signs, term_site_tables(dims))
            hit = self._stacks[key] = (u, stack)
        return hit[1]

    def __call__(
        self,
        u: np.ndarray,
        psi: np.ndarray,
        phases: tuple[complex, complex, complex, complex],
        site_axis_start: int = 0,
        out: np.ndarray | None = None,
        *,
        diag: float | None = None,
        dagger: bool = False,
    ) -> np.ndarray:
        """Spin-projected hopping term, written into ``out``.

        ``site_axis_start`` locates the (T, Z, Y, X) axes within ``psi``
        (1 for 5-D domain-wall fields; the gauge field broadcasts over
        the leading s axis).  ``out`` must not be ``psi``.  With ``diag``,
        the Wilson form ``diag psi - hop / 2`` instead, gamma5-sandwiched
        when ``dagger`` (:func:`compose_form`), in the same one pass.
        """
        if site_axis_start not in (0, 1):
            raise ValueError("the fused kernel takes at most one axis ahead of the sites")
        if out is None:
            out = np.empty_like(psi)
        elif out is psi:
            raise ValueError("hopping kernel output must not alias the input field")
        # A single field is a width-1 block; a 5-D one is a block of its s-slices.
        block, block_out = (psi[None], out[None]) if site_axis_start == 0 else (psi, out)
        self._hop(u, block, phases, block_out, diag, dagger)
        return out

    def apply_batch_into(
        self,
        u: np.ndarray,
        X: np.ndarray,
        phases: tuple[complex, complex, complex, complex],
        out: np.ndarray | None = None,
        *,
        diag: float | None = None,
        dagger: bool = False,
        normal: bool = False,
    ) -> np.ndarray:
        """Multi-RHS hopping term: ``out[i] = hop(X[i])`` for an RHS block.

        ``X`` has shape (nrhs, T, Z, Y, X, 4, 3).  The RHS index is one
        more leading axis of the planes, so each column of the result is
        bit-for-bit what :meth:`__call__` gives on ``X[i]``; a block too
        wide for the working-set target goes through in equal sub-blocks.
        ``diag`` and ``dagger`` select a Wilson form as in :meth:`__call__`,
        and ``normal`` with ``diag`` selects ``M^dag M``, whose intermediate
        ``M X`` stays in planes.
        """
        if out is None:
            out = np.empty_like(X)
        elif out is X:
            raise ValueError("hopping kernel output must not alias the input field")
        return self._hop(u, X, phases, out, diag, dagger, normal)

    def _hop(
        self, u: np.ndarray, X: np.ndarray, phases, out: np.ndarray,
        diag: float | None = None, dagger: bool = False, normal: bool = False,
    ) -> np.ndarray:
        """``out[r] = hop(X[r])``, or a Wilson form of it, over (rhs, T, Z, Y, X, 4, 3) blocks.

        ``M`` runs on the planes of each tile.  ``M^dag`` and ``M^dag M`` do
        too when the hop is one tile with +-1 phases, and are composed around
        ``M`` otherwise.
        """
        if not (u.dtype == X.dtype == out.dtype):
            raise TypeError(
                f"links ({u.dtype}), input ({X.dtype}) and output ({out.dtype}) must "
                "share one precision; cast the operator with astype() instead"
            )
        nrhs, dims = X.shape[0], X.shape[1:5]
        if dims != u.shape[1:5]:
            raise ValueError(f"field sites {dims} do not match the gauge field {u.shape[1:5]}")
        step, group, tile = plan(dims, nrhs, X.real.itemsize)
        planar = tile == dims[0] and _wraps_by_sign(phases)
        if (dagger or normal) and not planar:
            # A tile reads past its faces from the complex field, so gamma5 of
            # the input, or M X, must be one: M tile by tile, gamma5 around it.
            def wilson(src: np.ndarray, dst: np.ndarray) -> None:
                self._hop(u, src, phases, dst, diag)

            return compose_form(wilson, X, out, dagger, normal, self.workspace)
        links = self._link_planes(u)
        stack = self._link_stacks(u, phases, False) if group == 8 else None
        # A lattice wraps every axis: no ghosts, nothing behind a face.
        whole, behind = full_box(dims), (None,) * 4
        with ufunc_rows():
            for r in range(0, nrhs, step):
                block = X[r : r + step]
                if diag is not None and planar:
                    planes = self._form_planes(
                        self._load(block, "hop.psi"), links, stack, phases, group,
                        diag, dagger, normal,
                    )
                    store_planes(out[r : r + step], planes)
                    continue
                tiles = self.hop_tiles(block, 0, whole, links, behind, phases, group, tile, stack)
                for ((t0, t1), *_), psi, acc in tiles:
                    if diag is not None:
                        _wilson_planes(acc, psi, diag)
                    store_planes(out[r : r + step, t0:t1], acc)
        return out

    def _form_planes(
        self, psi: np.ndarray, links: np.ndarray, stack: np.ndarray | None, phases,
        group: int, diag: float, dagger: bool, normal: bool,
    ) -> np.ndarray:
        """A Wilson form of the field planes ``psi`` of a one-tile hop with +-1
        phases, :func:`compose_form`'s rule on planes from load to store: no
        slab comes from outside the planes, so ``M psi`` is hopped again
        where it lies.  ``psi`` is scaled in place; returns workspace planes.
        """

        def wrap(mu: int, s: int) -> float:
            return float(phases[mu].real)

        def wilson(x: np.ndarray, slot: str) -> np.ndarray:
            """``M x`` into workspace planes ``slot``; scales ``x``."""
            if group == 8:
                return _wilson_planes(self._stacked_terms(x, stack, wrap, slot), x, diag)
            return _wilson_planes(self._terms(x, links, links, wrap, group, slot), x, diag)

        if dagger and not normal:
            gamma5_planes(psi)
        y = wilson(psi, "hop.acc")
        if normal:
            y = wilson(gamma5_planes(y), "hop.psi")  # psi's planes are free by now
        if dagger or normal:
            gamma5_planes(y)
        return y

    def hop_tiles(
        self, X: np.ndarray, width: int, box: Box, links: np.ndarray, behind, phases,
        group: int, tile: int, stack: np.ndarray | None = None,
    ):
        """Field and hopping-term planes of ``box``, one tile of ``tile`` T slabs at a time.

        The one loop every fused stencil runs, on a lattice or on a rank's
        box.  ``X`` is an (rhs, T, Z, Y, X, 4, 3) block whose interior
        starts at ``width`` on each site axis (:func:`halo_widths`: ghosts
        only along the axes ``behind`` names, or none); ``links``,
        ``behind`` and ``phases`` say where each tile's out-of-tile slabs
        come from (:func:`_slab_sources`).  ``stack`` is the box's
        :func:`link_stack` when ``group`` is 8, which :func:`plan` picks
        only for a hop of one tile; without it, or cut into several tiles,
        a hop runs the per-direction pass, four terms a call for ``group``
        8.  Yields ``(tile_box, psi, acc)``, the planes being workspace
        buffers the caller's to overwrite before the next tile.

        A tile's T neighbours inside the box are carried, not re-read: the
        forward term's slab past the high face is projected from a one-slab
        look-ahead into the next tile's planes, and the backward term's
        slab behind the low face is the last slab of the product ``U^dag h``
        the previous tile formed.  Each slab is loaded once, and the carried
        slabs are the values :func:`_slab_sources` would have formed.
        """
        local = _interior_shape(X.shape[1:5], width)
        every = (slice(None),)
        lo, hi = box[0]
        if stack is None or hi - lo > tile:
            group = min(group, 4)  # the stacked pass: one tile and its link stack
        if hi - lo <= tile:
            table = _box_links(links, local, box) if stack is None else stack
            wrap = _slab_sources(X, width, links, behind, phases, box)
            psi, acc = self.hop_planes(table, X[every + _box_index(width, box)], wrap, group)
            yield box, psi, acc
            return
        ws, rdtype = self.workspace, X.real.dtype
        rest = (X.shape[0], 3) + tuple(b1 - b0 for b0, b1 in box[1:])
        slab = (2, 2) + rest[:2] + (1,) + rest[2:]
        # The slots of the wrapped T slabs (:meth:`_wrapped`), which a carried
        # slab replaces: the first tile's backward and the last tile's
        # forward slab come from outside the box and are formed there.
        ahead = ws.get((1,) + slab, rdtype, "hop.wrap0.h")[0]
        carry = ws.get((1,) + slab, rdtype, "hop.wrap0.uh")[0]

        def planes(t0: int, t1: int, k: int) -> np.ndarray:
            return ws.get((2, 4) + rest[:2] + (t1 - t0,) + rest[2:], rdtype, f"hop.psi{k % 2}")

        def block(t0: int, t1: int) -> np.ndarray:
            return X[every + _box_index(width, ((t0, t1),) + tuple(box[1:]))]

        psi = planes(lo, min(lo + tile, hi), 0)
        self._load_into(psi[:, :, :, :, :1], block(lo, lo + 1))
        for k, t0 in enumerate(range(lo, hi, tile)):
            t1 = min(t0 + tile, hi)
            part = ((t0, t1),) + tuple(box[1:])
            # Slab t0 came with the previous tile (or just above).
            self._load_into(psi[:, :, :, :, 1:], block(t0 + 1, t1))
            nxt = None
            if t1 < hi:
                nxt = planes(t1, min(t1 + tile, hi), k + 1)
                self._load_into(nxt[:, :, :, :, :1], block(t1, t1 + 1))
                project_planes_into(ahead, nxt[:, :, :, :, :1], 0, -1)
            sources = _slab_sources(X, width, links, behind, phases, part)

            def wrap(mu: int, s: int):
                # Carried across the tile's inner faces: ahead past the high
                # face, carry behind the low one.
                if mu == 0 and (nxt is not None if s < 0 else k > 0):
                    return ahead if s < 0 else carry
                return sources(mu, s)

            table = _box_links(links, local, part)
            acc = self._terms(
                psi, table, table, wrap, group, "hop.acc", carry=None if nxt is None else carry
            )
            yield part, psi, acc
            psi = nxt

    def hop_planes(self, links: np.ndarray, X: np.ndarray, wrap, group: int):
        """Field and hopping-term planes of one (rhs, T, Z, Y, X, 4, 3) block.

        Load planes, 8 direction terms in the reference's order.
        ``links`` are the :func:`link_planes` of the block's sites — for
        ``group`` 8, the stacked pass :func:`plan` picks for a small hop,
        their :func:`link_stack` with the wrap's signs folded in — and
        ``wrap(mu, s)`` names the source of the slab that term
        ``(1 + s gamma_mu)`` gathers from outside the block: a sign, for
        the block's own far face times it, or ``(spinors, links, sign)`` —
        the full spinors of those sites, one slab thick along ``mu``, for
        the backward term the planes of their ``U_mu``, and a sign the
        projected (and multiplied) slab takes — or that slab itself, formed
        already (:meth:`hop_tiles` carries it).  Returns workspace buffers
        ``(psi, acc)``, the caller's to overwrite.
        """
        psi = self._load(X, "hop.psi")
        if group == 8:
            return psi, self._stacked_terms(psi, links, wrap, "hop.acc")
        return psi, self._terms(psi, links, links, wrap, group, "hop.acc")

    def _terms(
        self,
        psi: np.ndarray,
        fwd_links: np.ndarray,
        bwd_links: np.ndarray,
        wrap,
        group: int,
        slot: str,
        x_rows: tuple = (None, None),
        carry: np.ndarray | None = None,
    ) -> np.ndarray:
        """The 8 direction terms of the planes ``psi``, summed into workspace planes ``slot``.

        The forward terms multiply by ``fwd_links`` at the target, the
        backward ones by the dagger of ``bwd_links`` at the source: one
        table on a lattice, the target's and the source's on a parity-
        ordered half lattice, where ``x_rows`` holds the ``rows`` tables of
        the forward and backward X shifts.  ``carry`` receives the last T
        slab of the backward T product, the next tile's slab behind its face.
        """
        nrhs, dims = psi.shape[2], psi.shape[4:]
        ws = self.workspace
        rdtype = psi.dtype

        acc = ws.zeros(psi.shape, rdtype, slot)
        stack = (group, 2, 2, nrhs, 3)
        fwd = ws.get(stack + dims, rdtype, "hop.fwd")
        bwd = ws.get(stack + dims, rdtype, "hop.bwd")
        tmp = ws.get(stack + dims, rdtype, "hop.tmp")

        for g0 in range(0, 4, group):
            mus = range(g0, g0 + group)
            # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu).
            for g, mu in enumerate(mus):
                project_planes_into(tmp[g], psi, mu, -1)
                shift_into(
                    bwd[g],
                    tmp[g],
                    4 + mu,
                    +1,
                    *self._wrapped(wrap(mu, -1), mu, -1),
                    rows=x_rows[0] if mu == 3 else None,
                )
            self._color_mul(fwd, fwd_links[g0 : g0 + group], bwd, False)
            # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu), multiplied
            # at the source x - mu and gathered after.
            for g, mu in enumerate(mus):
                project_planes_into(bwd[g], psi, mu, +1)
            self._color_mul(tmp, bwd_links[g0 : g0 + group], bwd, True)
            for g, mu in enumerate(mus):
                shift_into(
                    bwd[g],
                    tmp[g],
                    4 + mu,
                    -1,
                    *self._wrapped(wrap(mu, +1), mu, +1),
                    rows=x_rows[1] if mu == 3 else None,
                )
                reconstruct_planes_accumulate(acc, fwd[g], mu, -1)
                reconstruct_planes_accumulate(acc, bwd[g], mu, +1)
            if carry is not None and g0 == 0:
                np.copyto(carry, tmp[0][:, :, :, :, -1:])
        return acc

    def _stacked_terms(
        self, psi: np.ndarray, stack: np.ndarray, wrap, slot: str, parity: int | None = None,
        dims: tuple | None = None,
    ) -> np.ndarray:
        """:meth:`_terms` in a fixed number of calls: the stacked pass.

        The eight terms, in the reference's order f0, b0, ..., f3, b3, sit
        on one axis of (re|im, spin, term, rhs x colour, site) stacks.  One
        gather projects them, one site gather takes the forward ones to
        ``x + mu``, one colour multiply against the :func:`link_stack`
        ``stack`` covers all eight, one site gather takes the backward
        products (formed at the source ``x - mu``) home, and two
        reductions over the term axis reconstruct and sum.  A wrap by a
        sign is already in ``stack``; a slab from outside the block
        replaces what the gather read across the boundary.  The
        arithmetic is :meth:`_terms`' own — a sign is a multiply by +-1,
        ``a - b`` is ``a + (-b)``, each reduction runs along the term axis
        in order — so the two passes agree bit for bit.  ``parity`` and
        ``dims`` (the full lattice's) name a half lattice, as in
        :meth:`hop_parity_planes`.
        """
        nrhs = psi.shape[2]
        rows, volume = 3 * nrhs, psi[0, 0, 0, 0].size
        ws = self.workspace
        rdtype = psi.dtype
        terms = (2, 2, 8, rows, volume)
        project_sign, recon_sign = _stack_signs(rdtype)
        sources = [wrap(k // 2, 2 * (k % 2) - 1) for k in range(8)]
        gathers = _stack_gathers(dims or psi.shape[4:], parity, rows)

        def gather(out: np.ndarray, src: np.ndarray, side: int) -> None:
            """``out`` = ``src`` with the terms of ``side`` at their neighbours."""
            src.reshape(4, -1).take(gathers[side], axis=1, out=out.reshape(4, -1), mode="clip")
            for k in range(side, 8, 2):
                if isinstance(sources[k], float):
                    continue
                # A slab from outside the block: the sites that wrapped read it.
                mu, s = k // 2, 2 * (k % 2) - 1
                term = out.reshape((2, 2, 8, nrhs, 3) + psi.shape[4:])[:, :, k]
                edge = (slice(None),) * (4 + mu) + (slice(-1, None) if s < 0 else slice(0, 1),)
                sign, slab = self._wrapped(sources[k], mu, s)
                np.multiply(slab[0], sign, out=term[edge])

        # h[c, p, k] = upper[c, p] + sign * lower: all eight projections.
        psi_rows = psi.reshape(8, rows, volume)
        h = ws.get(terms, rdtype, "hop.stack.h")
        psi_rows.take(PROJECT_STACK[0], axis=0, out=h, mode="clip")
        h *= project_sign
        h += psi_rows.reshape(2, 4, 1, rows, volume)[:, 0:2]
        # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu), gathered before the multiply.
        g = ws.get(terms, rdtype, "hop.stack.g")
        gather(g, h, 0)
        self._stacked_color_mul(h, stack, g)
        # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu), multiplied at the
        # source x - mu and gathered after.
        gather(g, h, 1)
        acc = ws.get(psi.shape, rdtype, slot).reshape(2, 4, rows, volume)
        # Summed from +0.0, as into a zeroed accumulator.
        np.add.reduce(g, axis=2, out=acc[:, 0:2], initial=0.0)
        g.reshape(32, -1).take(RECON_STACK[0], axis=0, out=h.reshape(2, 2, 8, -1), mode="clip")
        h *= recon_sign
        np.add.reduce(h, axis=2, out=acc[:, 2:4], initial=0.0)
        return acc.reshape(psi.shape)

    # -- the parity-ordered entry: the same terms on the sites of one parity -------

    def hop_parity_planes(
        self, u: np.ndarray, psi: np.ndarray, phases, parity: int, slot: str
    ) -> np.ndarray:
        """Hopping term onto the sites of ``parity``, from the planes ``psi`` of the other one.

        With +-1 phases, half of :meth:`__call__` for half its cost, and
        value-identical on those sites: the same terms in the same order.
        Any other phase takes the lattice route of
        :meth:`ParityEntry.hop_parity_planes`.
        """
        if not _wraps_by_sign(phases):
            return super().hop_parity_planes(u, psi, phases, parity, slot)
        _check_parity_planes(u, psi)
        links = self._parity_link_planes(u)
        dims = u.shape[1:5]
        _, x_rows = parity_site_tables(dims)
        _, group, _ = plan(psi.shape[4:], psi.shape[2], psi.itemsize)

        def wrap(mu: int, s: int) -> float:
            return float(phases[mu].real)

        if group == 8:
            stack = self._link_stacks(u, phases, True)[parity]
            return self._stacked_terms(psi, stack, wrap, slot, parity, dims)
        return self._terms(
            psi, links[parity], links[1 - parity], wrap, group, slot, x_rows[parity]
        )

    def _wrapped(self, source, mu: int, s: int) -> tuple:
        """``(phase, wrapped)`` of :func:`shift_into` from a ``wrap(mu, s)`` source.

        A slab formed here has slots of its axis: :meth:`hop_tiles` keeps a
        carried T slab in axis 0's across the other axes' slabs.
        """
        if isinstance(source, float):
            return source, None
        if isinstance(source, np.ndarray):
            return 1.0, source  # a slab the tile loop carried, formed already
        spinors, u, sign = source
        ws = self.workspace
        rdtype = spinors.real.dtype
        sites = (spinors.shape[0], 3) + spinors.shape[1:5]
        h = ws.get((1, 2, 2) + sites, rdtype, f"hop.wrap{mu}.h")
        # Projected where the spinors lie: the same adds on the same values.
        project_planes_into(h[0], _plane_view(spinors), mu, s)
        if u is None:
            return sign, h
        uh = ws.get(h.shape, rdtype, f"hop.wrap{mu}.uh")
        self._color_mul(uh, u, h, True)
        return sign, uh

    def _stacked_color_mul(self, out: np.ndarray, stack: np.ndarray, h: np.ndarray) -> None:
        """``out[:, :, k] = stack[k] h[:, :, k]`` for (2, 2, 8, rhs x 3, site) stacks, the
        three colour columns in one product: :func:`color_mul_planes_into`'s arithmetic."""
        terms = (2, 2, 8, -1, 3, h.shape[-1])
        # (term, re|im, spin, rhs, colour, site) views.
        out = out.reshape(terms).transpose(2, 0, 1, 3, 4, 5)
        h = h.reshape(terms).transpose(2, 0, 1, 3, 4, 5)
        # prod[k, cu, ch, s, rhs, a, b, site] = stack[k, cu, a, b] * h[k, ch, s, rhs, b]:
        # the colour column next to the sites, so every operand runs rows of 3 V.
        prod = self.workspace.get(
            (8, 2) + h.shape[1:4] + (3,) + h.shape[4:], h.dtype, "hop.stack.prod"
        )
        np.multiply(stack[:, :, None, None, None], h[:, None, :, :, :, None], out=prod)
        # t_b = (Ur hr - Ui hi, Ur hi + Ui hr) lands in prod[:, 0]; out = t_0 + t_1 + t_2,
        # from -0.0, which leaves t_0 as it is.
        np.subtract(prod[:, 0, 0], prod[:, 1, 1], out=prod[:, 0, 0])
        np.add(prod[:, 0, 1], prod[:, 1, 0], out=prod[:, 0, 1])
        np.add.reduce(prod[:, 0], axis=5, out=out, initial=-0.0)

    def _color_mul(self, out: np.ndarray, u: np.ndarray, h: np.ndarray, dagger: bool) -> None:
        """:func:`color_mul_planes_into` over equal site blocks whose scratch meets the target."""
        flat = h.shape[:5] + (-1,)
        out, h = out.reshape(flat), h.reshape(flat)
        volume = h.shape[-1]
        step = _equal_parts(volume, _BLOCK_BYTES // (2 * h[..., 0].size * h.itemsize))
        for i in range(0, volume, step):
            h_part = h[..., i : i + step]
            color_mul_planes_into(
                out[..., i : i + step],
                u[..., i : i + step],
                h_part,
                dagger,
                self.workspace.get(h.shape[:1] + (2,) + h_part.shape[1:], h.dtype, "hop.prod"),
            )
