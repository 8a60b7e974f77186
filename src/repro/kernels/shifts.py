"""Allocation-free periodic shifts on contiguous arrays.

``np.roll`` allocates its output and resolves the wrap-around with
general index arithmetic on every call.  On a C-contiguous array a
nearest-neighbour shift along any axis is one flat offset copy — every
site whose neighbour lies in the same outer block reads the element
``dist * inner`` further on, whatever the axis — plus one slab copy that
overwrites the sites that wrapped.  :func:`shift_into` writes both
straight into a caller-provided buffer; the rows it moves are as long as
the array allows even for the minor-most axis, where a slice-pair copy
would move ``extent - 1`` elements at a time.

Semantics match :func:`repro.lattice.shift_with_phase` exactly
(gather convention, phase on the wrapped slab):

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

__all__ = ["shift_into", "half_extents", "parity_site_tables", "term_site_tables"]


def shift_into(
    out: np.ndarray,
    a: np.ndarray,
    axis: int,
    dist: int,
    phase: complex = 1.0,
    wrapped: np.ndarray | None = None,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gather ``a`` from ``dist`` sites ahead along ``axis`` into ``out``.

    Bitwise-identical to ``shift_with_phase(a, axis, dist, phase)`` but
    with zero allocations.  ``out`` and ``a`` must be distinct
    C-contiguous arrays of one shape.  ``wrapped``, a C-contiguous array
    with extent ``|dist|`` along ``axis``, replaces the far face of ``a``
    as the source of the slab that crossed the boundary.

    ``rows = (source, crossed)`` is for a last ``axis`` along which only
    some rows shift and the rest copy: ``source`` holds, for every element
    of the trailing axes it spans (flattened), the index there of the
    element it reads, the wrap resolved, and the boolean ``crossed``, over
    those axes less the last, marks the rows whose element did wrap and
    takes ``phase``; there is no slab for ``wrapped`` to replace.
    """
    if out is a:
        raise ValueError("shift_into requires out and a to be distinct arrays")
    if out.shape != a.shape or not (out.flags.c_contiguous and a.flags.c_contiguous):
        raise ValueError("shift_into requires C-contiguous arrays of one shape")
    if dist == 0:
        np.copyto(out, a)
        return out
    n = a.shape[axis]
    d = abs(dist)
    if d > n:
        raise ValueError(f"|dist|={d} exceeds extent {n} along axis {axis}")
    if rows is not None:
        source, crossed = rows
        # mode="clip": np.take buffers ``out`` under the default "raise".
        np.take(
            a.reshape(-1, source.size),
            source,
            axis=1,
            out=out.reshape(-1, source.size),
            mode="clip",
        )
        if phase != 1.0:
            edge = out[..., n - 1 if dist > 0 else 0]
            np.multiply(edge, phase, out=edge, where=crossed)
        return out
    inner = 1
    for extent in a.shape[axis + 1 :]:
        inner *= extent
    step = d * inner
    out_flat, a_flat = out.reshape(-1), a.reshape(-1)
    out_slabs, a_slabs = out.reshape(-1, n, inner), a.reshape(-1, n, inner)
    if dist > 0:
        # out[i] = a[i + d]; sites i >= n-d wrap to a[0 : d].
        out_flat[: a.size - step] = a_flat[step:]
        dst, src = out_slabs[:, n - d :], a_slabs[:, :d]
    else:
        # out[i] = a[i - d]; sites i < d wrap to a[n-d : n].
        out_flat[step:] = a_flat[: a.size - step]
        dst, src = out_slabs[:, :d], a_slabs[:, n - d :]
    if wrapped is not None:
        src = wrapped.reshape(-1, d, inner)
    if phase == 1.0:
        dst[...] = src
    else:
        np.multiply(src, phase, out=dst)
    return out


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
