"""The Wilson-Dirac operator.

``M psi(x) = (m + 4) psi(x) - (1/2) hop(psi)(x)``

with the Wilson parameter fixed at ``r = 1``.  Equivalently, in hopping
normalisation ``M = (m + 4)(1 - kappa_factor D)`` with
``kappa = 1 / (2 m + 8)``.

The operator is gamma5-Hermitian: ``M^dag = gamma5 M gamma5``, which is how
the adjoint is implemented (no second stencil needed).

The hopping term goes through a named kernel from
:mod:`repro.kernels.registry` — ``fused`` (workspace-backed, default) or
``reference`` (shift-and-einsum specification), selectable per operator via the
``kernel`` argument or globally via the ``REPRO_KERNEL`` environment
variable.  The two are bit-for-bit identical, so the choice only affects
speed and allocation behaviour.  Every form — ``M``, ``M^dag`` and the
batched ``M^dag M`` — is one kernel call; the kernel adds the diagonal
and gamma5 to its hop (:func:`repro.kernels.fused.compose_form`).
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator, NormalOperator
from repro.fields import GaugeField
from repro.kernels.registry import make_kernel, resolve_kernel_name
from repro.telemetry.instruments import record_kernel_selection
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["WilsonDirac"]


class WilsonDirac(LinearOperator):
    """Wilson fermion matrix on a gauge background.

    Parameters
    ----------
    gauge:
        The gauge configuration.
    mass:
        Bare quark mass ``m`` (lattice units).  The operator is singular at
        the critical mass (``m = 0`` on a free field); solver difficulty
        grows as ``m -> m_crit``, which the solver benchmarks exploit.
    phases:
        Fermion boundary phases per direction; defaults to antiperiodic
        time.
    kernel:
        Hopping-kernel name (see :func:`repro.kernels.available_kernels`);
        ``None`` defers to ``$REPRO_KERNEL`` and then the ``fused``
        default.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        kernel: str | None = None,
    ) -> None:
        super().__init__()
        self.gauge = gauge
        self.mass = float(mass)
        self.phases = tuple(phases)
        self.kernel_name = resolve_kernel_name(kernel)
        self._kernel = make_kernel(self.kernel_name)
        self.flops_per_apply = (
            WILSON_DSLASH_FLOPS_PER_SITE + 8 * 12  # hop + axpy with the mass term
        ) * gauge.lattice.volume
        self.telemetry_label = "dslash_wilson"
        self.telemetry_sites = gauge.lattice.volume
        record_kernel_selection(self)

    @property
    def lattice(self):
        return self.gauge.lattice

    @property
    def kappa(self) -> float:
        """Hopping parameter ``kappa = 1 / (2 m + 8)``."""
        return 1.0 / (2.0 * self.mass + 8.0)

    @property
    def diag(self) -> float:
        """The site-diagonal coefficient ``m + 4``."""
        return self.mass + 4.0

    def invalidate_kernel_cache(self) -> None:
        """Drop kernel-side link caches after an *in-place* gauge mutation.

        Not needed when ``gauge.u`` is replaced wholesale (the caches key
        on array identity).
        """
        self._kernel.invalidate()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self._apply(psi, None)

    def apply_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free apply: ``out = diag * psi - 0.5 * hop(psi)``."""
        return self._apply(psi, out)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``M^dag = gamma5 M gamma5`` (gamma5-hermiticity)."""
        return self._apply(psi, None, dagger=True)

    def apply_dagger_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._apply(psi, out, dagger=True)

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Multi-RHS apply over an (nrhs, T, Z, Y, X, 4, 3) block, links
        streamed once per block; each column bit-identical to :meth:`apply_into`."""
        return self._apply(X, out, batch=True)

    def apply_dagger_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._apply(X, out, batch=True, dagger=True)

    def _apply(
        self, X: np.ndarray, out: np.ndarray | None, batch: bool = False, dagger: bool = False
    ) -> np.ndarray:
        """Every form is one call of the kernel's single-field or block entry."""
        entry = self._kernel.apply_batch_into if batch else self._kernel
        return entry(self.gauge.u, X, self.phases, out=out, diag=self.diag, dagger=dagger)

    def normal_op(self) -> NormalOperator:
        """``M^dag M`` whose batched form is one kernel pass: ``M X`` stays in the
        kernel's planes between the two hops — bit for bit ``NormalOperator(self)``."""
        return _WilsonNormalOperator(self)

    def astype(self, dtype) -> "WilsonDirac":
        """Precision-cast clone (fp32 operator for the mixed-precision inner
        solve)."""
        return WilsonDirac(
            self.gauge.astype(dtype), self.mass, self.phases, kernel=self.kernel_name
        )


class _WilsonNormalOperator(NormalOperator):
    """:class:`NormalOperator` of a :class:`WilsonDirac` whose batched form is one
    kernel call.  The single-RHS forms stay the wrapper's two applies, one
    pass each; label, flops and counters are the wrapper's own."""

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        w = self.inner
        return w._kernel.apply_batch_into(
            w.gauge.u, X, w.phases, out=out, diag=w.diag, normal=True
        )
