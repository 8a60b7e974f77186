"""Even-odd (red-black) preconditioning of the Wilson operator.

The hopping term only connects opposite parities, so in the parity-ordered
basis

``M = [[ d I     , -1/2 H_eo ],
       [ -1/2 H_oe,  d I     ]]``        with  d = m + 4.

Eliminating the odd sites gives the Schur complement on the even sublattice

``M_hat = d - H_eo H_oe / (4 d)``

whose condition number is roughly the square root of M's — solving
``M_hat x_e = b_hat`` then reconstructing ``x_o`` typically takes 2-3x
fewer Dslash applications than the unpreconditioned solve.  This is the
standard trick of every production lattice solver and ablation E10
quantifies it.

Fields stay full-lattice arrays at this API (zeros on the odd sites of
an even-site field).  Inside, every form runs on the kernel's parity
entry (:class:`~repro.kernels.fused.ParityEntry`): the even sites are
gathered into planes once, ``H_oe``, ``H_eo``, the scale and the
diagonal term run on half-lattice planes, and the result is stored once.
The normal operator ``M_hat^dag M_hat`` that CG solves
(:meth:`SchurOperator.normal_op`) stays on those planes from ``M_hat`` to
``M_hat^dag``: one gather, four half hops, one store, where wrapping the
Schur operator in :class:`~repro.dirac.operator.NormalOperator` stores to
a full-lattice temporary and gathers it again in between.  The ``fused``
kernel hops between half lattices under +-1 phases — a Schur apply costs
one Dslash; the ``reference`` kernel, and ``fused`` under any other
phase, hop through the full lattice with the other parity zeroed.  Both
kernels run the same plane arithmetic here, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator, NormalOperator
from repro.fields import GaugeField
from repro.kernels.fused import plan, ufunc_rows
from repro.kernels.shifts import half_extents
from repro.kernels.spin import gamma5_planes
from repro.kernels.registry import make_kernel, resolve_kernel_name
from repro.telemetry.instruments import record_kernel_selection
from repro.lattice import checkerboard_masks
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["EvenOddWilson", "SchurOperator"]

EVEN, ODD = 0, 1


class EvenOddWilson:
    """Even-odd decomposition of a Wilson operator.  Its source preparation,
    reconstruction and full apply take a field or an (nrhs, ...) block.

    Nominal flop accounting uses the half-volume counts of a packed
    implementation, which is what the paper's numbers assume.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        kernel: str | None = None,
    ) -> None:
        shape = gauge.lattice.shape
        if any(n % 2 for n in shape):
            raise ValueError(
                f"even-odd preconditioning needs even extents, got {shape}: "
                "the checkerboard does not close across an odd boundary"
            )
        self.gauge = gauge
        self.mass = float(mass)
        self.phases = tuple(phases)
        self.even, self.odd = checkerboard_masks(gauge.lattice)
        self.kernel_name = resolve_kernel_name(kernel)
        self._kernel = make_kernel(self.kernel_name)
        self.telemetry_label = "dslash_eo"
        record_kernel_selection(self)

    @property
    def lattice(self):
        return self.gauge.lattice

    @property
    def diag(self) -> float:
        return self.mass + 4.0

    # -- Schur pieces ----------------------------------------------------------

    def schur_operator(self) -> "SchurOperator":
        return SchurOperator(self)

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """``b_hat = b_e - M_eo M_oo^{-1} b_o = b_e + H_eo b_o / (2 d)``."""
        out = np.empty_like(b)
        B, out_block = _block(b), _block(out)
        kernel = self._kernel
        for rows in self._sub_blocks(B):
            with ufunc_rows():
                b_o = kernel.parity_planes(B[rows], ODD, "eo.source")
                b_hat = kernel.hop_parity_planes(self.gauge.u, b_o, self.phases, EVEN, "eo.hop")
                b_hat *= _reciprocal(b_hat, 2.0 * self.diag)
                b_hat += kernel.parity_planes(B[rows], EVEN, "eo.other")
            kernel.store_parity_planes(out_block[rows], (b_hat, None))
        return out

    def reconstruct(self, x_e: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """Back-substitute the odd solution:
        ``x_o = (b_o + H_oe x_e / 2) / d``; returns the full-lattice x
        (``b=None``: no source, ``x_o = H_oe x_e / 2d``)."""
        out = np.empty_like(x_e)
        X, out_block = _block(x_e), _block(out)
        B = None if b is None else _block(b)
        kernel = self._kernel
        for rows in self._sub_blocks(X):
            with ufunc_rows():
                x_even = kernel.parity_planes(X[rows], EVEN, "eo.source")
                x_odd = kernel.hop_parity_planes(self.gauge.u, x_even, self.phases, ODD, "eo.hop")
                x_odd *= 0.5
                if B is not None:
                    x_odd += kernel.parity_planes(B[rows], ODD, "eo.other")
                x_odd *= _reciprocal(x_odd, self.diag)
            kernel.store_parity_planes(out_block[rows], (x_even, x_odd))
        return out

    def full_operator_apply(self, psi: np.ndarray) -> np.ndarray:
        """The unpreconditioned M (for residual verification)."""
        out = self._kernel.apply_batch_into(self.gauge.u, _block(psi), self.phases, diag=self.diag)
        return out.reshape(psi.shape)

    def _sub_blocks(self, X: np.ndarray):
        """Row slices of an (nrhs, ...) block, as many columns a pass as a
        half-lattice hop takes (:func:`~repro.kernels.fused.plan`)."""
        step, _, _ = plan(half_extents(self.lattice.shape), len(X), X.real.itemsize)
        return (slice(r, r + step) for r in range(0, len(X), step))


def _block(x: np.ndarray) -> np.ndarray:
    """A (T, Z, Y, X, 4, 3) field as a width-1 block, an (nrhs, ...) block as itself."""
    return x.reshape((-1,) + x.shape[-6:])


def _reciprocal(planes: np.ndarray, c: float):
    """The factor that divides real ``planes`` by ``c`` the way NumPy divides
    a complex array by a real scalar: by the reciprocal, rounded in the
    array's precision."""
    real = planes.dtype.type
    return real(1.0) / real(c)


class SchurOperator(LinearOperator):
    """``M_hat = d - H_eo H_oe / (4 d)`` acting on even-site fields.

    gamma5-Hermitian on the even subspace, so its normal operator feeds CG.
    Every form takes and returns full-lattice arrays, reads the even sites
    of its input only and writes zeros on the odd sites of its output; all
    of them go through :meth:`_apply_block`, so they agree bit for bit.
    """

    def __init__(self, eo: EvenOddWilson) -> None:
        super().__init__()
        self.eo = eo
        # Two half-volume Dslash applications = one full-volume count.
        self.flops_per_apply = WILSON_DSLASH_FLOPS_PER_SITE * eo.lattice.volume

    def normal_op(self) -> "NormalOperator":
        """``M_hat^dag M_hat``, run on half-lattice planes: gathered once, four
        half hops, stored once — bit for bit ``NormalOperator(self)``."""
        return _SchurNormalOperator(self)

    def _apply_block(
        self, X: np.ndarray, out: np.ndarray, dagger: bool = False, normal: bool = False
    ) -> np.ndarray:
        """``out[i] = M_hat X[i]`` (``M_hat^dag = gamma5 M_hat gamma5`` when
        ``dagger``: gamma5 is site-diagonal, hence parity-preserving;
        ``M_hat^dag M_hat`` when ``normal``)."""
        kernel = self.eo._kernel
        with ufunc_rows():
            for rows in self.eo._sub_blocks(X):
                x = kernel.parity_planes(X[rows], EVEN, "eo.source")
                if dagger:
                    gamma5_planes(x)
                y = self._schur_planes(x, "eo.other")
                if normal:
                    # M_hat^dag y = gamma5 M_hat gamma5 y, into x's planes (free now).
                    gamma5_planes(y)
                    y = self._schur_planes(y, "eo.source")
                if dagger or normal:
                    gamma5_planes(y)
                kernel.store_parity_planes(out[rows], (y, None))
        return out

    def _schur_planes(self, x: np.ndarray, slot: str) -> np.ndarray:
        """``M_hat x`` on even-site planes, into workspace planes ``slot``; ``x`` is
        scaled in place on the way."""
        eo = self.eo
        kernel, u, phases = eo._kernel, eo.gauge.u, eo.phases
        h_oe = kernel.hop_parity_planes(u, x, phases, ODD, "eo.hop")
        y = kernel.hop_parity_planes(u, h_oe, phases, EVEN, slot)
        y *= _reciprocal(y, -(4.0 * eo.diag))
        x *= x.dtype.type(eo.diag)
        y += x
        return y

    def apply(self, x_e: np.ndarray) -> np.ndarray:
        return self.apply_into(x_e, np.empty_like(x_e))

    def apply_dagger(self, x_e: np.ndarray) -> np.ndarray:
        return self.apply_dagger_into(x_e, np.empty_like(x_e))

    def apply_into(self, x_e: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._apply_block(x_e[None], out[None])
        return out

    def apply_dagger_into(self, x_e: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._apply_block(x_e[None], out[None], dagger=True)
        return out

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._apply_block(X, out)

    def apply_dagger_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._apply_block(X, out, dagger=True)


class _SchurNormalOperator(NormalOperator):
    """:class:`NormalOperator` of a :class:`SchurOperator` whose every form is one
    :meth:`SchurOperator._apply_block` call; label, flops and counters are the
    wrapper's own."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_into(x, np.empty_like(x))

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.inner._apply_block(x[None], out[None], normal=True)
        return out

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.inner._apply_block(X, out, normal=True)
