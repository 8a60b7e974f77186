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

The Schur system lives on the even sites alone, and its vectors are the
kernel's even-site planes: a *column* is a real array laid out as
:meth:`~repro.kernels.fused.ParityEntry.parity_planes` lays out one right-hand
side, ``(re|im, spin, 1, colour, T, Z, Y, X/2)``
(:attr:`EvenOddWilson.planes_shape`), and a block of columns stacks them
on a leading axis.  :meth:`EvenOddWilson.prepare_rhs` takes a full-lattice
source to the planes of ``b_hat``, :meth:`SchurOperator.apply_planes_into`
applies ``M_hat`` or ``M_hat^dag`` to columns, the normal operator
``M_hat^dag M_hat`` that CG solves (:meth:`SchurOperator.normal_op`) maps
columns to columns, and :meth:`EvenOddWilson.reconstruct` takes the
solution's columns back to full-lattice fields.  A single column *is* the
kernel's layout, so a Schur CG iteration is two Schur applies and gamma5
on the iterate's own planes: no gather, no full-lattice store, no zeros;
its inner products run on half-size real vectors, where ``Re<a, b>`` is
the real dot product — exact for the Hermitian normal operator.  Columns
of a block pass through one transposing copy each way.

The full-lattice forms of :class:`SchurOperator` (``apply``,
``apply_into``, ``apply_dagger`` and their batched kind) take and return
full-lattice arrays, read the even sites of their input only and write
zeros on the odd sites of their output; they gather the even sites into
planes once and store the result once.  The ``fused`` kernel hops between
half lattices under +-1 phases — a Schur apply costs one Dslash; the
``reference`` kernel, and ``fused`` under any other phase, hop through the
full lattice with the other parity zeroed.  Both kernels run the same
plane arithmetic here, so they agree bit for bit.
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
    reconstruction and plane gather take a field or an (nrhs, ...) block,
    and return a column or a block of columns (and back).

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

    @property
    def planes_shape(self) -> tuple[int, ...]:
        """Shape of one column: the even-site planes of one field."""
        return (2, 4, 1, 3) + half_extents(self.lattice.shape)

    # -- Schur pieces ----------------------------------------------------------

    def schur_operator(self) -> "SchurOperator":
        return SchurOperator(self)

    def even_planes(self, x: np.ndarray) -> np.ndarray:
        """The columns of the even sites of a field or an (nrhs, ...) block."""
        X, out = _block(x), self._columns(x.shape[:-6], x.real.dtype)
        kernel = self._kernel
        for rows in self._sub_blocks(X):
            _store_columns(out[rows], kernel.parity_planes(X[rows], EVEN, "eo.source"))
        return out.reshape(x.shape[:-6] + self.planes_shape)

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """The columns of ``b_hat = b_e - M_eo M_oo^{-1} b_o = b_e + H_eo b_o / (2 d)``."""
        B, out = _block(b), self._columns(b.shape[:-6], b.real.dtype)
        kernel = self._kernel
        for rows in self._sub_blocks(B):
            with ufunc_rows():
                b_o = kernel.parity_planes(B[rows], ODD, "eo.source")
                b_hat = kernel.hop_parity_planes(self.gauge.u, b_o, self.phases, EVEN, "eo.hop")
                b_hat *= _reciprocal(b_hat, 2.0 * self.diag)
                b_hat += kernel.parity_planes(B[rows], EVEN, "eo.other")
            _store_columns(out[rows], b_hat)
        return out.reshape(b.shape[:-6] + self.planes_shape)

    def reconstruct(self, x_e: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """Back-substitute the odd solution of the column(s) ``x_e``:
        ``x_o = (b_o + H_oe x_e / 2) / d``; returns the full-lattice x
        (``b=None``: no source, ``x_o = H_oe x_e / 2d``)."""
        X = x_e.reshape((-1,) + self.planes_shape)
        lead = x_e.shape[: x_e.ndim - len(self.planes_shape)]
        out = np.empty(lead + self.lattice.shape + (4, 3), np.result_type(x_e.dtype, np.complex64))
        out_block = _block(out)
        B = None if b is None else _block(b)
        kernel = self._kernel
        for rows in self._sub_blocks(X):
            with ufunc_rows():
                x_even = self._kernel_planes(X[rows], "eo.source")
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

    def _columns(self, lead: tuple, dtype) -> np.ndarray:
        """An uninitialised (n, *planes_shape) block for ``lead`` leading axes."""
        return np.empty((int(np.prod(lead, dtype=int)),) + self.planes_shape, dtype)

    def _kernel_planes(self, P: np.ndarray, slot: str) -> np.ndarray:
        """The kernel's (re|im, spin, rhs, colour, *half) planes of a block of
        columns: a contiguous column itself, else workspace planes ``slot``."""
        if len(P) == 1 and P.flags.c_contiguous:
            return P[0]
        planes = self._kernel.workspace.get(_kernel_shape(P), P.dtype, slot)
        np.copyto(planes, _kernel_view(P))
        return planes

    def _sub_blocks(self, X: np.ndarray):
        """Row slices of an (nrhs, ...) block, as many columns a pass as a
        half-lattice hop takes (:func:`~repro.kernels.fused.plan`)."""
        step, _, _ = plan(half_extents(self.lattice.shape), len(X), X.real.itemsize)
        return (slice(r, r + step) for r in range(0, len(X), step))


def _block(x: np.ndarray) -> np.ndarray:
    """A (T, Z, Y, X, 4, 3) field as a width-1 block, an (nrhs, ...) block as itself."""
    return x.reshape((-1,) + x.shape[-6:])


def _kernel_shape(P: np.ndarray) -> tuple[int, ...]:
    """The kernel planes' shape of a block of columns: the rhs axis holds the columns."""
    return P.shape[1:3] + (len(P),) + P.shape[4:]


def _kernel_view(P: np.ndarray) -> np.ndarray:
    """A block of columns as a strided view in the kernel planes' layout."""
    return np.moveaxis(P[:, :, :, 0], 0, 2)


def _store_columns(out: np.ndarray, planes: np.ndarray) -> None:
    """Block of columns ``out`` = the kernel planes ``planes``."""
    np.copyto(_kernel_view(out), planes)


def _reciprocal(planes: np.ndarray, c: float):
    """The factor that divides real ``planes`` by ``c`` the way NumPy divides
    a complex array by a real scalar: by the reciprocal, rounded in the
    array's precision."""
    real = planes.dtype.type
    return real(1.0) / real(c)


class SchurOperator(LinearOperator):
    """``M_hat = d - H_eo H_oe / (4 d)`` acting on even-site fields.

    gamma5-Hermitian on the even subspace, so its normal operator feeds CG.
    :meth:`apply_planes_into` acts on columns of even-site planes, and so
    does :meth:`normal_op`.  The full-lattice forms (``apply``,
    ``apply_into``, ``apply_dagger``, ``apply_dagger_into`` and the batched
    ones) read the even sites of their input only and write zeros on the
    odd sites of their output.  Every form runs :meth:`_forms`, so they all
    agree bit for bit.
    """

    def __init__(self, eo: EvenOddWilson) -> None:
        super().__init__()
        self.eo = eo
        # Two half-volume Dslash applications = one full-volume count.
        self.flops_per_apply = WILSON_DSLASH_FLOPS_PER_SITE * eo.lattice.volume

    def normal_op(self) -> "NormalOperator":
        """``M_hat^dag M_hat`` on columns of even-site planes: bit for bit
        ``NormalOperator(self)`` on the even sites."""
        return _SchurNormalOperator(self)

    def apply_planes_into(
        self, X: np.ndarray, out: np.ndarray, dagger: bool = False, normal: bool = False
    ) -> np.ndarray:
        """``out[i] = M_hat X[i]`` for a block of columns (``M_hat^dag`` when
        ``dagger``, ``M_hat^dag M_hat`` when ``normal``); ``X`` is only read."""
        eo = self.eo
        ws = eo._kernel.workspace
        with ufunc_rows():
            for rows in eo._sub_blocks(X):
                x = eo._kernel_planes(X[rows], "eo.columns")
                target = out[rows]
                if len(target) == 1 and target.flags.c_contiguous:
                    self._forms(x, dagger, normal, out=target[0])
                else:
                    y = self._forms(x, dagger, normal, out=ws.get(x.shape, x.dtype, "eo.result"))
                    _store_columns(target, y)
        return out

    def _apply_block(self, X: np.ndarray, out: np.ndarray, dagger: bool = False) -> np.ndarray:
        """The full-lattice forms: ``out[i] = M_hat X[i]`` (``M_hat^dag`` when
        ``dagger``) for an (nrhs, ...) block, the even sites gathered once and
        the result stored once."""
        kernel = self.eo._kernel
        with ufunc_rows():
            for rows in self.eo._sub_blocks(X):
                x = kernel.parity_planes(X[rows], EVEN, "eo.source")
                kernel.store_parity_planes(out[rows], (self._forms(x, dagger), None))
        return out

    def _forms(
        self, x: np.ndarray, dagger: bool = False, normal: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``M_hat x`` on kernel planes into ``out`` (default: workspace planes);
        ``M_hat^dag = gamma5 M_hat gamma5`` when ``dagger`` (gamma5 is
        site-diagonal, hence parity-preserving), ``M_hat^dag M_hat`` when
        ``normal``.  ``x`` is only read."""
        if dagger:
            g5 = self.eo._kernel.workspace.get(x.shape, x.dtype, "eo.g5")
            np.copyto(g5[:, 0:2], x[:, 0:2])
            np.negative(x[:, 2:4], out=g5[:, 2:4])
            x = g5
        y = self._schur_planes(x, "eo.other", None if normal else out)
        if normal:
            # M_hat^dag y = gamma5 M_hat gamma5 y.
            gamma5_planes(y)
            y = self._schur_planes(y, "eo.source", out)
        if dagger or normal:
            gamma5_planes(y)
        return y

    def _schur_planes(self, x: np.ndarray, slot: str, out: np.ndarray | None) -> np.ndarray:
        """``M_hat x`` on kernel planes into ``out`` (``None``: workspace planes
        ``slot``); ``x`` is only read."""
        eo = self.eo
        kernel, u, phases = eo._kernel, eo.gauge.u, eo.phases
        h_oe = kernel.hop_parity_planes(u, x, phases, ODD, "eo.hop")
        y = kernel.hop_parity_planes(u, h_oe, phases, EVEN, slot)
        y *= _reciprocal(y, -(4.0 * eo.diag))
        # The diagonal term d x, formed in h_oe's planes (free now).
        np.multiply(x, x.dtype.type(eo.diag), out=h_oe)
        return np.add(y, h_oe, out=y if out is None else out)

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
    """:class:`NormalOperator` of a :class:`SchurOperator` on columns of
    even-site planes: every form is one :meth:`SchurOperator.apply_planes_into`
    call; label, flops and counters are the wrapper's own."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_into(x, np.empty_like(x))

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.inner.apply_planes_into(x[None], out[None], normal=True)
        return out

    def apply_batch_into(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.inner.apply_planes_into(X, out, normal=True)
