"""Shift tables for the kernels' hops.

The one shift, :func:`shift_into` (defined in :mod:`repro.lattice.shifts`
and re-exported here), writes a periodic gather straight into a
caller-provided buffer, with the semantics of
:func:`repro.lattice.shift_with_phase` (gather convention, phase on the
wrapped slab):

``out[..., i, ...] = a[..., (i + dist) % n, ...]`` on ``axis``,
with the slab that crossed the boundary multiplied by ``phase``.

That wrapped slab is the one place a rank of a decomposed lattice
differs from a periodic one: its sources lie outside the array, so the
caller passes them as ``wrapped`` and only the flat copy reads ``a``.

The sites of one checkerboard parity, ordered as
:func:`parity_site_tables` orders them, are a lattice of their own with
half the X extent, and a hop between the two half lattices is the same
shift along T, Z and Y.  Along X it is a shift in every other row and a
plain copy in the rest — the ``rows`` tables of :func:`shift_into`.

On a hop small enough to be call-bound the fused kernel moves all eight
terms' half spinors at once instead, by one gather over flat site tables
(:func:`term_site_tables`) with the same semantics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.lattice.shifts import shift_into

__all__ = ["shift_into", "half_extents", "parity_site_tables", "term_site_tables"]


def half_extents(dims: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """``(T, Z, Y, X/2)``: the lattice the sites of one parity form."""
    if any(n % 2 for n in dims):
        raise ValueError(f"parity ordering needs even extents, got {tuple(dims)}")
    return tuple(dims[:3]) + (dims[3] // 2,)


@lru_cache(maxsize=None)
def parity_site_tables(dims: tuple[int, int, int, int]) -> tuple[np.ndarray, tuple]:
    """Parity ordering of the sites of a 4-D lattice with even extents.

    The sites of parity ``p`` form a ``(T, Z, Y, X/2)`` lattice: its site
    ``(t, z, y, xh)`` is ``x = 2 xh + (t + z + y + p) % 2`` of the full
    one.  A neighbour along T, Z or Y is the site of the other parity
    with the same ``xh``.  Along X the forward neighbour sits at
    ``xh + 1`` in the rows whose offset ``(t + z + y + p) % 2`` is 1 and
    at ``xh`` in the others; the backward neighbour at ``xh - 1`` in the
    rows of offset 0.

    Returns ``(sites, x_rows)``, cached per ``dims`` and read-only:

    ``sites``
        intp array (2, volume / 2); ``sites[p]`` holds the flat C-order
        indices over ``dims`` of the sites of parity ``p``, in the C order
        of their half lattice.
    ``x_rows``
        ``x_rows[p][0]`` and ``x_rows[p][1]`` are the ``rows`` tables of
        :func:`shift_into` for the forward and the backward X shift onto
        the sites of parity ``p``.
    """
    half = half_extents(dims)
    t, z, y, xh = np.indices(half)
    offset = np.stack([(t + z + y + p) % 2 for p in (0, 1)])
    sites = np.ravel_multi_index((t, z, y, 2 * xh + offset), dims).reshape(2, -1)
    sites.flags.writeable = False

    def rows(step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        source = np.ravel_multi_index((t, z, y, (xh + step) % half[3]), half).reshape(-1)
        crossed = step[..., 0] != 0
        source.flags.writeable = False
        crossed.flags.writeable = False
        return source, crossed

    return sites, tuple((rows(offset[p]), rows(offset[p] - 1)) for p in (0, 1))


@lru_cache(maxsize=None)
def term_site_tables(
    dims: tuple[int, ...], parity: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(source, crossed)``, (8, V): the neighbour gathers of the eight hopping terms.

    Term ``k = 2 mu + (s > 0)`` gathers from ``x + mu`` (forward, ``s = -1``)
    or ``x - mu`` (backward): site ``v`` of its stack reads ``source[k, v]``,
    the wrap resolved, and ``crossed[k, v]`` marks the reads that crossed the
    boundary — :func:`shift_into` along ``mu`` by ``-s`` on flat site
    indices.  Sites of the ``dims`` lattice, or, with ``parity``, of the
    half lattice of that parity's sites (:func:`parity_site_tables`).
    """
    half = dims if parity is None else half_extents(dims)
    volume = int(np.prod(half))
    index = np.arange(volume).reshape(half)
    source = np.empty((8, volume), np.intp)
    crossed = np.zeros((8,) + tuple(half), bool)
    for k in range(8):
        mu, dist = k // 2, 1 - 2 * (k % 2)
        edge = (slice(None),) * mu + (half[mu] - 1 if dist > 0 else 0,)
        if parity is not None and mu == 3:
            rows, wrapped = parity_site_tables(dims)[1][parity][k % 2]
            source[k] = rows
            crossed[k][edge] = wrapped
        else:
            source[k] = np.roll(index, -dist, axis=mu).reshape(-1)
            crossed[k][edge] = True
    source.flags.writeable = False
    crossed.flags.writeable = False
    return source, crossed.reshape(8, volume)
