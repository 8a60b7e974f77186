"""The Wilson-Dirac operator.

``M psi(x) = (m + 4) psi(x) - (1/2) hop(psi)(x)``

with the Wilson parameter fixed at ``r = 1``.  Equivalently, in hopping
normalisation ``M = (m + 4)(1 - kappa_factor D)`` with
``kappa = 1 / (2 m + 8)``.

The operator is gamma5-Hermitian: ``M^dag = gamma5 M gamma5``, which is how
the adjoint is implemented (no second stencil needed).

The hopping term goes through a named kernel from
:mod:`repro.kernels.registry` — ``fused`` (workspace-backed, default) or
``reference`` (roll-based specification), selectable per operator via the
``kernel`` argument or globally via the ``REPRO_KERNEL`` environment
variable.  The two are bit-for-bit identical, so the choice only affects
speed and allocation behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator
from repro.fields import GaugeField
from repro.gammas import apply_gamma5
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
        invalidate = getattr(self._kernel, "invalidate", None)
        if invalidate is not None:
            invalidate()

    def _hop(self, psi: np.ndarray) -> np.ndarray:
        return self._kernel(self.gauge.u, psi, self.phases)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.diag * psi - 0.5 * self._hop(psi)

    def apply_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free apply: ``out = diag * psi - 0.5 * hop(psi)``.

        Bit-identical to :meth:`apply`: ``out *= -0.5`` equals the
        negated halving exactly, and IEEE addition is commutative.
        """
        self._kernel(self.gauge.u, psi, self.phases, out=out)
        out *= -0.5
        tmp = self.workspace.get(psi.shape, psi.dtype, "wilson.diag")
        np.multiply(psi, self.diag, out=tmp)
        out += tmp
        return out

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Multi-RHS apply over an (nrhs, T, Z, Y, X, 4, 3) block.

        Routes through the kernel's ``apply_batch_into`` when the backend
        has one (links streamed once per block) and mirrors
        :meth:`apply_into` op-for-op afterwards, so each column is
        bit-identical to a single-RHS apply; kernels without a batched
        path fall back to the base column loop.
        """
        batch = getattr(self._kernel, "apply_batch_into", None)
        if batch is None:
            return super().apply_batch_into(X, out)
        batch(self.gauge.u, X, self.phases, out=out)
        out *= -0.5
        tmp = self.workspace.get(X.shape, X.dtype, "wilson.batch.diag")
        np.multiply(X, self.diag, out=tmp)
        out += tmp
        return out

    def apply_dagger_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        tmp = self.workspace.get(X.shape, X.dtype, "wilson.batch.g5")
        np.copyto(tmp, X)
        tmp[..., 2:4, :] *= -1.0
        self.apply_batch_into(tmp, out)
        out[..., 2:4, :] *= -1.0
        return out

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``M^dag = gamma5 M gamma5`` (gamma5-hermiticity)."""
        return apply_gamma5(self.apply(apply_gamma5(psi)))

    def apply_dagger_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        tmp = self.workspace.get(psi.shape, psi.dtype, "wilson.g5")
        np.copyto(tmp, psi)
        tmp[..., 2:4, :] *= -1.0
        self.apply_into(tmp, out)
        out[..., 2:4, :] *= -1.0
        return out

    def astype(self, dtype) -> "WilsonDirac":
        """Precision-cast clone (fp32 operator for the mixed-precision inner
        solve)."""
        return WilsonDirac(
            self.gauge.astype(dtype), self.mass, self.phases, kernel=self.kernel_name
        )
