"""Kernel registry: named Dslash backends, selectable per operator or globally.

Two tiers, one truth:

``reference``
    :func:`repro.dirac.hopping.hopping_term`, one
    :func:`repro.lattice.shift_with_phase` and one ``einsum`` per term —
    the executable specification, kept allocation-heavy and obvious.  Its
    shifts run the same ``shift_into`` as ``fused``; that shift is checked
    on its own against ``np.roll`` in the lattice tests.
``fused``
    The workspace-backed :class:`repro.kernels.fused.FusedHopping` —
    site-minor real planes, real ufuncs only, bit-for-bit identical
    output.  The default.

Both run on NumPy alone, so every registered name can be constructed,
tested and measured on every host; any other name is a ``ValueError``
that lists these two.  Both implement one protocol: ``__call__`` and
``apply_batch_into`` (the hop, or a Wilson form of it), the parity entry
``parity_planes`` / ``hop_parity_planes`` / ``store_parity_planes`` of
:class:`~repro.kernels.fused.ParityEntry` that even-odd preconditioning
runs on, and ``invalidate``.

Selection precedence: explicit ``kernel=`` argument on the operator >
``REPRO_KERNEL`` environment variable > the ``fused`` default.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.kernels.fused import FusedHopping, ParityEntry, compose_form
from repro.kernels.workspace import Workspace

__all__ = [
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "available_kernels",
    "resolve_kernel_name",
    "make_kernel",
]

KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "fused"


class ReferenceHopping(ParityEntry):
    """The shift-and-einsum specification kernel behind the registry protocol;
    its parity hop, :class:`~repro.kernels.fused.ParityEntry`'s lattice route,
    is the oracle of the fused kernel's half-lattice hop.

    Its parity planes come from an arena of its own, not the thread's the
    fused kernels share: an oracle must not hand back the very buffer the
    kernel it checks wrote.
    """

    name = "reference"

    def __init__(self) -> None:
        self.workspace = Workspace()

    def __call__(self, u, psi, phases, site_axis_start=0, out=None, *, diag=None, dagger=False):
        """The hopping term, or with ``diag`` a Wilson form composed around it
        (:func:`repro.kernels.fused.compose_form`)."""
        from repro.dirac.hopping import hopping_term

        if out is psi:
            raise ValueError("hopping kernel output must not alias the input field")
        if diag is not None:
            def wilson(src, dst):
                self(u, src, phases, site_axis_start, out=dst)
                _add_diagonal(dst, src, diag)

            out = np.empty_like(psi) if out is None else out
            return compose_form(wilson, psi, out, dagger)
        result = hopping_term(u, psi, phases, site_axis_start)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def apply_batch_into(self, u, X, phases, out=None, *, diag=None, dagger=False, normal=False):
        """Column at a time: ``X`` is an (nrhs, T, Z, Y, X, 4, 3) RHS block
        and each column goes through the single-RHS path, so the result is
        *definitionally* bit-identical per column — the oracle the batched
        implementation is parity-tested against.  ``diag``, ``dagger`` and
        ``normal`` compose a Wilson form around the block's hops."""
        if out is None:
            out = np.empty_like(X)
        if diag is not None:
            def wilson(src, dst):
                self.apply_batch_into(u, src, phases, out=dst)
                _add_diagonal(dst, src, diag)

            return compose_form(wilson, X, out, dagger, normal)
        for i in range(X.shape[0]):
            self(u, X[i], phases, out=out[i])
        return out


def _add_diagonal(y: np.ndarray, x: np.ndarray, diag: float) -> None:
    """``y = -y / 2 + diag x``, the real and imaginary parts multiplied as reals."""
    d = y.real.dtype.type(diag)
    for y_part, x_part in ((y.real, x.real), (y.imag, x.imag)):
        y_part *= -0.5
        y_part += x_part * d


_FACTORIES: dict[str, Callable[[], object]] = {
    "reference": ReferenceHopping,
    "fused": FusedHopping,
}


def available_kernels() -> tuple[str, ...]:
    """Registered kernel names, sorted."""
    return tuple(sorted(_FACTORIES))


def resolve_kernel_name(name: str | None = None) -> str:
    """Resolve a kernel name: argument > ``$REPRO_KERNEL`` > default."""
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR, "").strip() or DEFAULT_KERNEL
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown Dslash kernel {name!r}; available: {available_kernels()}"
        )
    return name


def make_kernel(name: str | None = None):
    """Instantiate a (stateful) hopping kernel by name.

    Each call returns a fresh instance, so operators never share link
    caches.  Scratch is shared: every ``fused`` kernel on a thread draws
    on that thread's arena (:func:`~repro.kernels.workspace.thread_workspace`);
    a ``reference`` kernel keeps a private one.
    """
    return _FACTORIES[resolve_kernel_name(name)]()
