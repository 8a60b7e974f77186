"""The Shamir domain-wall operator (5-D chiral fermions).

The SC'13-era BlueGene/Q campaigns computed "the origin of mass" with
domain-wall fermions: a 5-D Wilson operator whose 4-D boundary modes are the
physical chiral quarks.  Acting on ``psi[s, t, z, y, x, spin, colour]``::

    (D psi)_s = (D_W(-M5) + 1) psi_s - P_- psi_{s+1} - P_+ psi_{s-1}

with chiral projectors ``P_+- = (1 +- gamma5)/2`` and the physical quark
mass ``m_f`` entering through the 5-D boundaries::

    s = Ls-1:  P_- psi_{Ls} -> -m_f P_- psi_0
    s = 0:     P_+ psi_{-1} -> -m_f P_+ psi_{Ls-1}

The adjoint uses the reflection identity ``D^dag = Gamma5 R D R Gamma5``
where ``R`` reverses the 5th dimension — verified against the inner-product
definition in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator
from repro.fields import GaugeField
from repro.kernels.registry import make_kernel, resolve_kernel_name
from repro.telemetry.instruments import record_kernel_selection
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["DomainWallDirac"]


def _chiral_plus(psi: np.ndarray) -> np.ndarray:
    """``P_+ psi``: upper two spin components survive (chiral basis)."""
    out = np.zeros_like(psi)
    out[..., 0:2, :] = psi[..., 0:2, :]
    return out


def _chiral_minus(psi: np.ndarray) -> np.ndarray:
    """``P_- psi``: lower two spin components survive."""
    out = np.zeros_like(psi)
    out[..., 2:4, :] = psi[..., 2:4, :]
    return out


class DomainWallDirac(LinearOperator):
    """Shamir domain-wall fermion matrix.

    Parameters
    ----------
    gauge:
        4-D gauge configuration (links do not depend on s).
    mf:
        Physical (input) quark mass coupling the two walls.
    m5:
        Domain-wall height, conventionally ~1.8; must lie in (0, 2) for a
        single physical flavour.
    ls:
        Extent of the 5th dimension; chiral-symmetry breaking falls off
        exponentially in ``ls``.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mf: float,
        m5: float = 1.8,
        ls: int = 8,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        kernel: str | None = None,
    ) -> None:
        super().__init__()
        if ls < 2:
            raise ValueError(f"ls must be >= 2, got {ls}")
        self.gauge = gauge
        self.mf = float(mf)
        self.m5 = float(m5)
        self.ls = int(ls)
        self.phases = tuple(phases)
        self.kernel_name = resolve_kernel_name(kernel)
        self._kernel = make_kernel(self.kernel_name)
        # Ls 4-D Dslash sweeps plus the (cheap) 5th-dimension hops.
        self.flops_per_apply = (
            WILSON_DSLASH_FLOPS_PER_SITE + 4 * 12 + 2 * 12
        ) * gauge.lattice.volume * self.ls
        self.telemetry_label = "dslash_dwf"
        self.telemetry_sites = gauge.lattice.volume * self.ls
        record_kernel_selection(self)

    @property
    def lattice(self):
        return self.gauge.lattice

    @property
    def _diag(self) -> float:
        """The site-diagonal coefficient of ``D_W(-M5) + 1``."""
        return (4.0 - self.m5) + 1.0

    def field_shape(self) -> tuple[int, ...]:
        return (self.ls,) + self.lattice.shape + (4, 3)

    def zero_field(self, dtype=np.complex128) -> np.ndarray:
        return np.zeros(self.field_shape(), dtype=dtype)

    def random_field(self, rng=None, dtype=np.complex128) -> np.ndarray:
        from repro.util.rng import ensure_rng

        rng = ensure_rng(rng)
        shape = self.field_shape()
        return ((rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)).astype(
            dtype
        )

    # -- operator ------------------------------------------------------------

    def _wilson_part(self, psi: np.ndarray) -> np.ndarray:
        """``(D_W(-M5) + 1) psi`` applied to every s-slice at once."""
        return self._kernel(self.gauge.u, psi, self.phases, site_axis_start=1, diag=self._diag)

    def _fifth_dim(self, psi: np.ndarray) -> np.ndarray:
        """``- P_- psi_{s+1} - P_+ psi_{s-1}`` with mass-coupled walls."""
        up = np.roll(psi, -1, axis=0)  # up[s] = psi[s+1]
        dn = np.roll(psi, +1, axis=0)  # dn[s] = psi[s-1]
        # Wall terms: replace the wrapped slices by -mf times the opposite wall.
        up[self.ls - 1] = -self.mf * psi[0]
        dn[0] = -self.mf * psi[self.ls - 1]
        return -(_chiral_minus(up) + _chiral_plus(dn))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        self._check_shape(psi)
        return self._wilson_part(psi) + self._fifth_dim(psi)

    def apply_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free apply: the 4-D kernel's Wilson form sweeps all
        s-slices into ``out`` and the 5th-dimension hops are pure slice arithmetic.

        Value-identical to :meth:`apply`: each in-place subtraction equals
        the reference's add-of-negation in IEEE arithmetic.
        """
        self._check_shape(psi)
        ls, mf = self.ls, self.mf
        self._kernel(self.gauge.u, psi, self.phases, site_axis_start=1, out=out, diag=self._diag)
        # - P_- psi_{s+1}: lower spin components from the slice above ...
        out[0 : ls - 1, ..., 2:4, :] -= psi[1:ls, ..., 2:4, :]
        # ... - P_+ psi_{s-1}: upper components from the slice below ...
        out[1:ls, ..., 0:2, :] -= psi[0 : ls - 1, ..., 0:2, :]
        # ... and the mass-coupled walls (-(-mf psi) == +mf psi exactly).
        wall = self.workspace.get(psi.shape[1:-2] + (2, psi.shape[-1]), psi.dtype, "dwf.wall")
        np.multiply(psi[0, ..., 2:4, :], mf, out=wall)
        out[ls - 1, ..., 2:4, :] += wall
        np.multiply(psi[ls - 1, ..., 0:2, :], mf, out=wall)
        out[0, ..., 0:2, :] += wall
        return out

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^dag = Gamma5 R D R Gamma5`` (reflection x gamma5)."""
        self._check_shape(psi)
        x = self._gamma5_reflect(psi)
        x = self.apply(x)
        return self._gamma5_reflect(x)

    def apply_dagger_into(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._check_shape(psi)
        tmp = self.workspace.get(psi.shape, psi.dtype, "dwf.g5r")
        np.copyto(tmp, psi[::-1])
        tmp[..., 2:4, :] *= -1.0
        self.apply_into(tmp, out)
        np.copyto(tmp, out[::-1])
        tmp[..., 2:4, :] *= -1.0
        np.copyto(out, tmp)
        return out

    def _gamma5_reflect(self, psi: np.ndarray) -> np.ndarray:
        out = psi[::-1].copy()
        out[..., 2:4, :] *= -1.0
        return out

    def _check_shape(self, psi: np.ndarray) -> None:
        if psi.shape != self.field_shape():
            raise ValueError(f"field shape {psi.shape} != {self.field_shape()}")

    def astype(self, dtype) -> "DomainWallDirac":
        return DomainWallDirac(
            self.gauge.astype(dtype),
            self.mf,
            self.m5,
            self.ls,
            self.phases,
            kernel=self.kernel_name,
        )
