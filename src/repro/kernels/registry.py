"""Kernel registry: named Dslash backends, selectable per operator or globally.

Three first-class tiers, one truth:

``reference``
    The roll-based :func:`repro.dirac.hopping.hopping_term` — the
    executable specification, kept allocation-heavy and obvious.
``fused``
    The workspace-backed :class:`repro.kernels.fused.FusedHopping` —
    site-minor real planes, real ufuncs only, bit-for-bit identical
    output.  Always available; the default.
``compiled``
    The Numba-jitted :class:`repro.kernels.compiled.CompiledHopping` —
    a threaded, cache-blocked site-loop kernel, bit-for-bit identical
    to ``reference``.  Requires the optional ``numba`` dependency
    (``pip install repro[compiled]``); selecting it without numba
    raises :class:`KernelUnavailableError` (explicitly) or falls back
    to ``fused`` with a one-time warning (via the environment).

Plus ablation/experiment backends:

``naive``
    The full-spinor :func:`repro.dirac.hopping.hopping_term_naive`
    (the E10 spin-projection ablation; 4-D fields only).
``compiled-python``
    The compiled kernel's site-loop core run as interpreted Python —
    catastrophically slow, but dependency-free, so the compiled tier's
    arithmetic is bit-parity-tested even on NumPy-only installs.

Selection precedence: explicit ``kernel=`` argument on the operator >
``REPRO_KERNEL`` environment variable > the ``fused`` default.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from typing import Callable

import numpy as np

from repro.kernels.fused import FusedHopping

__all__ = [
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "KernelUnavailableError",
    "available_kernels",
    "kernel_available",
    "resolve_kernel_name",
    "make_kernel",
    "loop_apply_batch",
]

KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "fused"


class KernelUnavailableError(RuntimeError):
    """A requested kernel backend's runtime dependency is missing.

    Raised when a kernel is selected explicitly (``kernel=`` argument or
    :func:`make_kernel`) but cannot run in this environment — e.g.
    ``compiled`` without numba installed.  Environment-variable selection
    degrades to the ``fused`` default with a warning instead, so setting
    ``REPRO_KERNEL=compiled`` fleet-wide never breaks NumPy-only hosts.
    """


def loop_apply_batch(kernel, u, X, phases, out=None):
    """Column-at-a-time fallback for the ``apply_batch_into`` protocol.

    ``X`` is an (nrhs, T, Z, Y, X, 4, 3) RHS block; each column goes
    through the kernel's single-RHS path, so the result is *definitionally*
    bit-identical per column — this is the oracle the batched
    implementations are parity-tested against.
    """
    if out is None:
        out = np.empty_like(X)
    for i in range(X.shape[0]):
        kernel(u, X[i], phases, out=out[i])
    return out


class ReferenceHopping:
    """The roll-based specification kernel behind the registry protocol."""

    name = "reference"

    def __call__(self, u, psi, phases, site_axis_start=0, out=None):
        from repro.dirac.hopping import hopping_term

        result = hopping_term(u, psi, phases, site_axis_start)
        if out is None:
            return result
        if out is psi:
            raise ValueError("hopping kernel output must not alias the input field")
        np.copyto(out, result)
        return out

    def apply_batch_into(self, u, X, phases, out=None):
        return loop_apply_batch(self, u, X, phases, out)


class NaiveHopping:
    """Full-spinor reference without the half-spinor trick (E10 ablation)."""

    name = "naive"

    def __call__(self, u, psi, phases, site_axis_start=0, out=None):
        from repro.dirac.hopping import hopping_term_naive

        if site_axis_start != 0:
            raise ValueError("the naive kernel only supports 4-D fields")
        result = hopping_term_naive(u, psi, phases)
        if out is None:
            return result
        if out is psi:
            raise ValueError("hopping kernel output must not alias the input field")
        np.copyto(out, result)
        return out

    def apply_batch_into(self, u, X, phases, out=None):
        return loop_apply_batch(self, u, X, phases, out)


def _make_compiled():
    from repro.kernels.compiled import CompiledHopping

    return CompiledHopping()


def _make_compiled_python():
    from repro.kernels.compiled import CompiledHopping

    return CompiledHopping(jit=False)


_FACTORIES: dict[str, Callable[[], object]] = {
    "reference": ReferenceHopping,
    "fused": FusedHopping,
    "naive": NaiveHopping,
    "compiled": _make_compiled,
    "compiled-python": _make_compiled_python,
}

#: Kernels that need the optional numba dependency.
_REQUIRES_NUMBA = frozenset({"compiled"})

#: One-time-warning latch for the env-var graceful-degradation path.
_env_fallback_warned = False


def kernel_available(name: str) -> bool:
    """Whether ``name`` is registered *and* can run in this environment.

    Cheap: dependency presence is checked via ``importlib.util.find_spec``
    so NumPy-only hosts never pay a (failed) numba import.
    """
    if name not in _FACTORIES:
        return False
    if name in _REQUIRES_NUMBA:
        return importlib.util.find_spec("numba") is not None
    return True


def available_kernels() -> tuple[str, ...]:
    """Registered kernel names, sorted (availability not implied — see
    :func:`kernel_available`)."""
    return tuple(sorted(_FACTORIES))


def resolve_kernel_name(name: str | None = None) -> str:
    """Resolve a kernel name: argument > ``$REPRO_KERNEL`` > default.

    An *explicitly* requested kernel whose dependency is missing raises
    :class:`KernelUnavailableError`; the same kernel requested through
    the environment variable degrades to ``fused`` with a one-time
    warning, so a NumPy-only environment stays fully functional under a
    fleet-wide ``REPRO_KERNEL=compiled``.
    """
    global _env_fallback_warned
    from_env = name is None
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR, "").strip() or DEFAULT_KERNEL
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown Dslash kernel {name!r}; available: {available_kernels()}"
        )
    if not kernel_available(name):
        if not from_env:
            raise KernelUnavailableError(
                f"Dslash kernel {name!r} requires the optional numba dependency "
                f"(pip install repro[compiled]); it is not installed in this "
                f"environment. The NumPy {DEFAULT_KERNEL!r} kernel is always "
                f"available."
            )
        if not _env_fallback_warned:
            _env_fallback_warned = True
            warnings.warn(
                f"{KERNEL_ENV_VAR}={name} requested but numba is not installed; "
                f"falling back to the {DEFAULT_KERNEL!r} kernel "
                f"(pip install repro[compiled] to enable it)",
                RuntimeWarning,
                stacklevel=2,
            )
        return DEFAULT_KERNEL
    return name


def make_kernel(name: str | None = None):
    """Instantiate a (stateful) hopping kernel by name.

    Each call returns a fresh instance so operators never share
    workspaces or link caches.  Raises :class:`KernelUnavailableError`
    for an explicitly named kernel whose dependency is missing.
    """
    return _FACTORIES[resolve_kernel_name(name)]()
