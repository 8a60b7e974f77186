"""Periodic shifts with optional boundary phases.

``shift(a, mu, +1)`` returns the field whose value at site x is the input at
``x + e_mu`` (a *forward gather*): ``out[x] = a[x + mu]``.  This is the
convention used by the hopping-term kernels.

Fermion fields typically carry antiperiodic boundary conditions in time; the
wrapped slice then picks up a ``-1`` (or a general U(1) phase for twisted
boundary conditions), implemented by :func:`shift_with_phase`.

Both go through :func:`shift_into`, the allocation-free form the Dslash
kernels use.  ``np.roll`` allocates its output and resolves the
wrap-around with general index arithmetic on every call.  On a
C-contiguous array a nearest-neighbour shift along any axis is one flat
offset copy — every site whose neighbour lies in the same outer block
reads the element ``dist * inner`` further on, whatever the axis — plus
one slab copy that overwrites the sites that wrapped; the rows it moves
are as long as the array allows even for the minor-most axis.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shift", "shift_with_phase", "shift_into"]


def shift(a: np.ndarray, mu: int, dist: int) -> np.ndarray:
    """Gather ``a`` from ``dist`` sites ahead along axis ``mu``.

    ``out[..., i, ...] = a[..., (i + dist) % N, ...]`` on axis ``mu``.
    """
    return shift_with_phase(a, mu, dist)


def shift_with_phase(a: np.ndarray, mu: int, dist: int, phase: complex = 1.0) -> np.ndarray:
    """Like :func:`shift` but multiplies the wrapped-around slab by ``phase``.

    With a phase other than 1, only |dist| <= extent is supported (all
    stencils use dist = +-1).
    """
    mu = range(a.ndim)[mu]
    n = a.shape[mu]
    if not a.size:
        return a.copy()
    if phase == 1.0 and abs(dist) > n:
        dist %= n
    return shift_into(np.empty(a.shape, a.dtype), np.ascontiguousarray(a), mu, dist, phase)


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

    :func:`shift_with_phase` into a caller's buffer, with zero
    allocations.  ``out`` and ``a`` must be distinct
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
