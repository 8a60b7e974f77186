"""The Wilson-clover (Sheikholeslami-Wohlert) operator.

Adds the O(a)-improvement term

``M_clover psi = - (csw / 2) sum_{mu < nu} sigma_{mu nu} F_{mu nu} psi``

to the Wilson operator, where ``F_{mu nu}`` is the clover-leaf field
strength.  The term is site-diagonal (spin x colour dense), Hermitian, and
commutes with gamma5, so the full operator stays gamma5-Hermitian.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import NormalOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField
from repro.gammas import sigma_munu
from repro.loops import LinkPlanes
from repro.su3 import planes
from repro.util.flops import CLOVER_FLOPS_PER_SITE

__all__ = ["CloverDirac", "clover_field_strength"]


def clover_field_strength(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """Clover-discretised field strength ``F_{mu nu}(x)``.

    ``F = (Q - Q^dag) / (8 i)`` projected traceless, ``Q`` the sum of the
    four plaquette leaves (:meth:`repro.loops.LinkPlanes.clover`): ``F`` is
    ``Ta(Q) / (4 i)`` on planes.  Hermitian and traceless by construction;
    vanishes on a free field.
    """
    ta = planes.project_algebra(LinkPlanes(u).clover(mu, nu), 0.25)
    return planes.from_planes(np.stack([ta[1], -ta[0]])[None], u.shape[1:5])[0]


class CloverDirac(WilsonDirac):
    """Wilson-clover fermion matrix.

    The six ``F_{mu nu}`` fields are computed once at construction (they
    depend only on the gauge field); each apply then adds six site-diagonal
    ``sigma (x) F`` terms to the Wilson result.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        csw: float = 1.0,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        kernel: str | None = None,
    ) -> None:
        super().__init__(gauge, mass, phases, kernel)
        self.csw = float(csw)
        self._terms: list[tuple[np.ndarray, np.ndarray]] = []
        for mu in range(4):
            for nu in range(mu + 1, 4):
                self._terms.append(
                    (sigma_munu(mu, nu), clover_field_strength(gauge.u, mu, nu))
                )
        self.flops_per_apply += CLOVER_FLOPS_PER_SITE * gauge.lattice.volume

    def clover_term(self, psi: np.ndarray) -> np.ndarray:
        """``- (csw/2) sum sigma_{mu nu} F_{mu nu} psi`` (site-diagonal)."""
        out = np.zeros_like(psi)
        for sig, f in self._terms:
            out += np.einsum("st,...ab,...tb->...sa", sig, f, psi, optimize=True)
        return -0.5 * self.csw * out

    def _apply(
        self, X: np.ndarray, out: np.ndarray | None, batch: bool = False, dagger: bool = False
    ) -> np.ndarray:
        """The Wilson form plus the clover term of each column.

        The term is Hermitian and commutes with gamma5, so ``M^dag`` adds it
        to the Wilson ``M^dag`` as ``M`` does to ``M``.  It mirrors
        :meth:`clover_term` op-for-op (zero, add each sigma x F product,
        scale), and stays a column loop: its 12-term ``sigma x F`` einsum
        contraction has no exactness guarantee under re-folding, and it is
        site-diagonal (no link streaming to amortise), so the loop keeps
        bit-parity for free while the hopping term gets the batched kernel.
        """
        out = super()._apply(X, out, batch, dagger)
        block, block_out = (X, out) if batch else (X[None], out[None])
        ws = self.workspace
        acc = ws.zeros(block.shape, block.dtype, "clover.acc")
        term = ws.get(block.shape[1:], block.dtype, "clover.term")
        for i in range(block.shape[0]):
            for sig, f in self._terms:
                np.einsum("st,...ab,...tb->...sa", sig, f, block[i], optimize=True, out=term)
                acc[i] += term
        acc *= -0.5 * self.csw
        block_out += acc
        return out

    def normal_op(self) -> NormalOperator:
        """The generic wrapper: the clover term is not a kernel form."""
        return NormalOperator(self)

    def astype(self, dtype) -> "CloverDirac":
        return CloverDirac(
            self.gauge.astype(dtype),
            self.mass,
            self.csw,
            self.phases,
            kernel=self.kernel_name,
        )
