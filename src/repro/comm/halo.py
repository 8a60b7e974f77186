"""Halo (ghost-shell) fields and the face-exchange primitive.

This is the communication pattern of the paper's Dslash: each rank extends
its local block by a ghost shell of width ``w`` in every lattice direction,
fills the shells from the face data of its six-to-eight Cartesian neighbours
(a *self*-wrap along undecomposed axes), and then applies the stencil to the
interior with no further neighbour logic.  A width may also be given per
axis (:func:`~repro.kernels.fused.halo_widths`): a block whose stencil wraps
the axes its rank spans carries ghosts only along the split ones, and an
axis of width 0 has no shell to fill.

Only face slabs are exchanged, with *interior* extents on the orthogonal
axes — a nearest-neighbour stencil never reads the ghost corners, so they
are neither sent nor written, exactly as production halo codes do (and
exactly what :func:`face_bytes` charges).  Corner ghosts keep whatever the
allocation put there (zeros from :func:`add_halo`), which makes the filled
arrays deterministic and bit-comparable across communicator backends.

The face-slab index helpers here are the single source of truth for both
the sequential exchange below and the process-parallel pull-style exchange
in :mod:`repro.comm.executor` — every backend copies exactly the same slabs.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace
from repro.kernels.fused import halo_widths, interior_slices

__all__ = [
    "HaloField",
    "add_halo",
    "strip_halo",
    "halo_exchange",
    "face_bytes",
    "face_bytes_of_shape",
    "face_index",
    "record_exchange_trace",
]


@dataclass
class HaloField:
    """A rank-local array extended by ghost shells on the 4 site axes.

    ``data`` has extents ``local + 2*width`` on each site axis; ``width``
    is one int for every axis or one per axis (:func:`halo_widths`).  Site
    axes start at ``site_axis_start`` (0 for fermions, 1 for gauge fields).
    """

    data: np.ndarray
    width: int | tuple[int, int, int, int]
    site_axis_start: int = 0

    @property
    def interior_shape(self) -> tuple[int, ...]:
        s0 = self.site_axis_start
        widths = halo_widths(self.width)
        return tuple(n - 2 * w for n, w in zip(self.data.shape[s0 : s0 + 4], widths))

    def interior(self) -> np.ndarray:
        """View of the owned (non-ghost) region."""
        s0 = self.site_axis_start
        return self.data[(slice(None),) * s0 + interior_slices(self.width)]


def add_halo(local: np.ndarray, width=1, site_axis_start: int = 0) -> HaloField:
    """Embed a local block into a ghost-extended array (ghosts zeroed)."""
    widths = halo_widths(width)
    if min(widths) < 0 or max(widths) < 1:
        raise ValueError("halo width must be >= 1")
    pad = [(0, 0)] * site_axis_start + [(w, w) for w in widths]
    pad += [(0, 0)] * (local.ndim - site_axis_start - 4)
    data = np.pad(local, pad, mode="constant")
    return HaloField(data, width, site_axis_start)


def strip_halo(halo: HaloField) -> np.ndarray:
    """Contiguous copy of the interior."""
    return np.ascontiguousarray(halo.interior())


def face_bytes_of_shape(
    ext_shape: tuple[int, ...], site_axis_start: int, width, mu: int, itemsize: int
) -> int:
    """Payload of one face message along ``mu`` for a halo-extended shape."""
    widths = halo_widths(width)
    face_sites = 1
    for nu in range(4):
        if nu != mu:
            face_sites *= ext_shape[site_axis_start + nu] - 2 * widths[nu]
    trailing = int(math.prod(ext_shape[site_axis_start + 4 :])) or 1
    lead = int(math.prod(ext_shape[:site_axis_start])) or 1
    return face_sites * widths[mu] * trailing * lead * itemsize


def face_bytes(halo: HaloField, mu: int) -> int:
    """Payload of one face message along ``mu`` (interior extents on the
    other axes; ghost corners are not sent)."""
    return face_bytes_of_shape(
        halo.data.shape, halo.site_axis_start, halo.width, mu, halo.data.itemsize
    )


#: Face-slab roles: ghost shells (written) and interior source slabs (read).
_FACE_SLABS = {
    "ghost_lo": lambda w: slice(0, w),
    "ghost_hi": lambda w: slice(-w, None),
    "src_lo": lambda w: slice(w, 2 * w),
    "src_hi": lambda w: slice(-2 * w, -w),
}


def face_index(
    ndim: int, site_axis_start: int, width, mu: int, role: str
) -> tuple[slice, ...]:
    """Index tuple selecting one face slab of a halo-extended array.

    ``role`` is one of ``ghost_lo``/``ghost_hi`` (the shells an exchange
    writes) or ``src_lo``/``src_hi`` (the interior boundary slabs it
    reads).  Orthogonal site axes take interior extents, so corners are
    excluded on both sides of the copy.  ``mu`` must carry ghosts (a
    nonzero width along it).
    """
    idx = [slice(None)] * ndim
    idx[site_axis_start : site_axis_start + 4] = interior_slices(width)
    idx[site_axis_start + mu] = _FACE_SLABS[role](halo_widths(width)[mu])
    return tuple(idx)


def record_exchange_trace(
    trace: CommTrace | None,
    grid: RankGrid,
    nbytes_by_mu: list[int] | tuple[int, ...],
) -> None:
    """Log the halo events of one full exchange, in canonical order.

    The canonical order (``mu`` outer, rank inner, high then low
    neighbour, self-wraps skipped) is shared by every backend so traces
    stay comparable event-for-event.
    """
    if trace is None:
        return
    for mu in range(4):
        for r in grid.all_ranks():
            if grid.neighbor(r, mu, +1) != r:
                trace.record_halo(r, mu, +1, nbytes_by_mu[mu])
            if grid.neighbor(r, mu, -1) != r:
                trace.record_halo(r, mu, -1, nbytes_by_mu[mu])


def halo_exchange(
    halos: list[HaloField],
    grid: RankGrid,
    trace: CommTrace | None = None,
    phases: tuple[complex, complex, complex, complex] | None = None,
) -> None:
    """Fill all ghost shells from neighbour face data, in place.

    The high-side ghost of rank ``r`` along ``mu`` receives the low-side
    interior boundary of its ``+mu`` neighbour (and vice versa).  Where the
    hop crosses the *global* lattice boundary the fermion boundary phase is
    applied: ``psi(x + N e_mu) = phase_mu psi(x)`` so the high ghost gets
    ``phase_mu * data`` and the low ghost gets ``conj(phase_mu) * data``.

    Exchanges between distinct ranks are recorded in ``trace``; wraps along
    undecomposed axes are local copies (not messages), as on a real machine.
    An axis without ghosts (width 0) is skipped.
    """
    if len(halos) != grid.nranks:
        raise ValueError(f"expected {grid.nranks} halo fields, got {len(halos)}")
    w = halos[0].width
    for mu, w_mu in enumerate(halo_widths(w)):
        if w_mu == 0:
            continue
        for r in grid.all_ranks():
            dst = halos[r]
            ndim, s0 = dst.data.ndim, dst.site_axis_start
            nbytes = face_bytes(dst, mu)

            # High ghost <- +mu neighbour's low interior slab.
            nb_hi = grid.neighbor(r, mu, +1)
            src = halos[nb_hi].data[face_index(ndim, s0, w, mu, "src_lo")]
            ghost = dst.data[face_index(ndim, s0, w, mu, "ghost_hi")]
            ghost[...] = src
            if phases is not None and grid.crosses_boundary(r, mu, +1):
                ghost *= phases[mu]
            if nb_hi != r and trace is not None:
                trace.record_halo(r, mu, +1, nbytes)

            # Low ghost <- -mu neighbour's high interior slab.
            nb_lo = grid.neighbor(r, mu, -1)
            src = halos[nb_lo].data[face_index(ndim, s0, w, mu, "src_hi")]
            ghost = dst.data[face_index(ndim, s0, w, mu, "ghost_lo")]
            ghost[...] = src
            if phases is not None and grid.crosses_boundary(r, mu, -1):
                ghost *= np.conj(phases[mu])
            if nb_lo != r and trace is not None:
                trace.record_halo(r, mu, -1, nbytes)
