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

A single-RHS field, a 5-D domain-wall field and a multi-RHS block differ
only in the extent of the ``rhs`` axis, which the links broadcast over;
a width-1 block *is* a single apply.

Scratch is streamed.  The half spinors of 1, 2 or 4 directions go
through the multiply in one call — few, large ufunc calls on a small
lattice, one direction at a time on a large one — a wide block is taken
in equal sub-blocks of columns, and at large volume the multiply's own
scratch is cut into site blocks, all sized from one working-set constant
(``_BLOCK_BYTES``), so the arena holds the field and accumulator planes,
three half-spinor stacks and a bounded block whatever the volume.

Every arithmetic operation is value-identical to the reference path —
signs and plane swaps are exact, and sums run in the reference's order —
so the two kernels agree bit-for-bit (asserted by the tier-1 tests).
Boundary phases of +-1 are a sign on the wrapped slab, which commutes
with everything downstream.  Any other phase is applied the way the
reference applies it, by NumPy's complex multiply on the source slab
before projection, because that rounding does not commute.

The link-table cache is keyed on the *identity* of the gauge array, the
same freeze-at-construction contract the clover operator already uses
for its field-strength tables: operators must not mutate ``gauge.u`` in
place between applies (HMC replaces the array wholesale, which
invalidates the cache naturally).  Call :meth:`FusedHopping.invalidate`
after any in-place link update.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.color import color_mul_planes_into
from repro.kernels.shifts import shift_into
from repro.kernels.spin import project_planes_into, reconstruct_planes_accumulate
from repro.kernels.workspace import Workspace

__all__ = ["FusedHopping"]

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


def _site_minor(a: np.ndarray) -> np.ndarray:
    """(rhs, *sites, spin, colour) -> (spin, rhs, colour, *sites), as a view."""
    n = a.ndim
    return a.transpose(n - 2, 0, n - 1, *range(1, n - 2))


def _slab(mu: int, index) -> tuple:
    """Index of an (rhs, T, Z, Y, X, ...) block selecting ``index`` along site axis ``mu``."""
    return (slice(None),) * (1 + mu) + (index,)


def _wrap_sign(phase: complex) -> float | None:
    """``+-1.0`` for a boundary phase that is exactly that, else None."""
    return float(np.real(phase)) if phase == 1 or phase == -1 else None


def _load_planes(planes: np.ndarray, X: np.ndarray, where: tuple, phase: complex = 1.0) -> None:
    """``planes[where] = phase * X[where]``, transposed to site-minor planes.

    ``where`` indexes ``X``; the same site selection sits three axes
    further back in ``planes`` (re|im, spin, rhs, colour, *sites).
    """
    block = X[where]
    if phase != 1.0:
        block = block * phase
    dst = (slice(None),) * 3 + where[1:]
    planes[0][dst] = _site_minor(block.real)
    planes[1][dst] = _site_minor(block.imag)


def _project(h: np.ndarray, planes: np.ndarray, X: np.ndarray, mu: int, s: int, phase) -> None:
    """Project ``(1 + s gamma_mu)`` at the source, for the gather that follows.

    The sources that will wrap (``x_mu = 0`` for the forward term
    ``s = -1``, the last slab for the backward one) carry a general
    ``phase`` already here: the slab of ``planes`` is reloaded from
    ``phase * X`` for the projection and restored after it.  A phase of
    +-1 is left to the shift.
    """
    if _wrap_sign(phase) is not None:
        project_planes_into(h, planes, mu, s)
        return
    where = _slab(mu, 0 if s < 0 else X.shape[1 + mu] - 1)
    _load_planes(planes, X, where, phase)
    project_planes_into(h, planes, mu, s)
    _load_planes(planes, X, where)


def _equal_parts(n: int, limit: int) -> int:
    """Part size that splits ``n`` into the fewest equal parts of at most ``limit``."""
    count = -(-n // max(1, limit))
    return -(-n // count)


class FusedHopping:
    """Stateful fused hopping kernel (workspace + cached link planes).

    Instances are cheap; each operator owns one so concurrent operators
    never share scratch buffers.
    """

    name = "fused"

    def __init__(self) -> None:
        self.workspace = Workspace()
        self._u_ref: np.ndarray | None = None
        self._links: np.ndarray | None = None

    def invalidate(self) -> None:
        """Drop the cached link table (after an in-place gauge update)."""
        self._u_ref = None
        self._links = None

    def _link_planes(self, u: np.ndarray) -> np.ndarray:
        """``links[mu, re|im, a, b, site]``, contiguous, cached per gauge array."""
        if self._u_ref is not u:
            volume = u[0].size // 9
            links = np.empty((4, 2, 3, 3, volume), dtype=u.real.dtype)
            for mu in range(4):
                sites = u[mu].reshape(volume, 3, 3).transpose(1, 2, 0)
                links[mu, 0] = sites.real
                links[mu, 1] = sites.imag
            self._links = links
            self._u_ref = u
        return self._links

    def __call__(
        self,
        u: np.ndarray,
        psi: np.ndarray,
        phases: tuple[complex, complex, complex, complex],
        site_axis_start: int = 0,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Spin-projected hopping term, written into ``out``.

        ``site_axis_start`` locates the (T, Z, Y, X) axes within ``psi``
        (1 for 5-D domain-wall fields; the gauge field broadcasts over
        the leading s axis).  ``out`` must not be ``psi``.
        """
        if site_axis_start not in (0, 1):
            raise ValueError("the fused kernel takes at most one axis ahead of the sites")
        if out is None:
            out = np.empty_like(psi)
        elif out is psi:
            raise ValueError("hopping kernel output must not alias the input field")
        if site_axis_start == 0:
            self._hop(u, psi[None], phases, out[None])
        else:
            self._hop(u, psi, phases, out)
        return out

    def apply_batch_into(
        self,
        u: np.ndarray,
        X: np.ndarray,
        phases: tuple[complex, complex, complex, complex],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Multi-RHS hopping term: ``out[i] = hop(X[i])`` for an RHS block.

        ``X`` has shape (nrhs, T, Z, Y, X, 4, 3).  The RHS index is one
        more leading axis of the planes, so each column of the result is
        bit-for-bit what :meth:`__call__` gives on ``X[i]``; a block too
        wide for the working-set target goes through in equal sub-blocks.
        """
        if out is None:
            out = np.empty_like(X)
        elif out is X:
            raise ValueError("hopping kernel output must not alias the input field")
        return self._hop(u, X, phases, out)

    def _hop(self, u: np.ndarray, X: np.ndarray, phases, out: np.ndarray) -> np.ndarray:
        """``out[r] = hop(X[r])`` over (rhs, T, Z, Y, X, 4, 3) blocks."""
        if not (u.dtype == X.dtype == out.dtype):
            raise TypeError(
                f"links ({u.dtype}), input ({X.dtype}) and output ({out.dtype}) must "
                "share one precision; cast the operator with astype() instead"
            )
        nrhs, dims = X.shape[0], X.shape[1:5]
        if dims != u.shape[1:5]:
            raise ValueError(f"field sites {dims} do not match the gauge field {u.shape[1:5]}")
        # How many half-spinor pairs (one per direction and rhs: the colour
        # multiply's scratch, 24 reals a site) meet the working-set target.
        # Columns beyond that go through in equal sub-blocks; when all fit
        # with room to spare, 2 or 4 directions share one multiply call.
        pairs = _BLOCK_BYTES // (24 * (u[0].size // 9) * X.real.itemsize)
        step = _equal_parts(nrhs, pairs)
        group = 4 if pairs >= 4 * step else 2 if pairs >= 2 * step else 1
        bufsize = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            for r in range(0, nrhs, step):
                self._hop_planes(u, X[r : r + step], phases, out[r : r + step], group)
        finally:
            np.setbufsize(bufsize)
        return out

    def _hop_planes(self, u, X, phases, out, group: int) -> None:
        """:meth:`_hop` on one sub-block: load planes, 8 direction terms, store."""
        nrhs, dims = X.shape[0], X.shape[1:5]
        links = self._link_planes(u)
        ws = self.workspace
        rdtype = links.dtype

        psi = ws.get((2, 4, nrhs, 3) + dims, rdtype, "hop.psi")
        acc = ws.zeros((2, 4, nrhs, 3) + dims, rdtype, "hop.acc")
        stack = (group, 2, 2, nrhs, 3)
        fwd = ws.get(stack + dims, rdtype, "hop.fwd")
        bwd = ws.get(stack + dims, rdtype, "hop.bwd")
        tmp = ws.get(stack + dims, rdtype, "hop.tmp")

        # Time blocks keep the strided side of the transposing copy in cache.
        t_block = max(1, _BLOCK_BYTES // (X[:, 0].size * X.itemsize))
        for t0 in range(0, dims[0], t_block):
            _load_planes(psi, X, _slab(0, slice(t0, t0 + t_block)))

        for g0 in range(0, 4, group):
            mus = range(g0, g0 + group)
            sign = [_wrap_sign(phases[mu]) or 1.0 for mu in mus]
            # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu).
            for g, mu in enumerate(mus):
                _project(tmp[g], psi, X, mu, -1, phases[mu])
                shift_into(bwd[g], tmp[g], 4 + mu, +1, sign[g])
            self._color_mul(fwd, links[g0 : g0 + group], bwd, False)
            # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu), multiplied
            # at the source x - mu and gathered after.
            for g, mu in enumerate(mus):
                _project(bwd[g], psi, X, mu, +1, np.conj(phases[mu]))
            self._color_mul(tmp, links[g0 : g0 + group], bwd, True)
            for g, mu in enumerate(mus):
                shift_into(bwd[g], tmp[g], 4 + mu, -1, sign[g])
                reconstruct_planes_accumulate(acc, fwd[g], mu, -1)
                reconstruct_planes_accumulate(acc, bwd[g], mu, +1)

        _site_minor(out.real)[...] = acc[0]
        _site_minor(out.imag)[...] = acc[1]

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
