"""The SU(3) gauge configuration.

Layout: ``u[mu, t, z, y, x, a, b]`` — direction-major so each directional
link field is one contiguous block, the access pattern of the hopping
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import su3
from repro.lattice import Lattice4D

__all__ = ["GaugeField"]


@dataclass
class GaugeField:
    """An SU(3) gauge configuration on a :class:`Lattice4D`.

    Attributes
    ----------
    lattice:
        The geometry.
    u:
        Link array of shape ``(4, T, Z, Y, X, 3, 3)``, complex.
    """

    lattice: Lattice4D
    u: np.ndarray

    # -- constructors --------------------------------------------------------

    @classmethod
    def cold(cls, lattice: Lattice4D, dtype=np.complex128) -> "GaugeField":
        """Unit (free-field) configuration: every link is the identity."""
        u = su3.identity((4,) + lattice.shape, dtype=dtype)
        return cls(lattice, u)

    @classmethod
    def hot(
        cls,
        lattice: Lattice4D,
        rng: np.random.Generator | int | None = None,
        dtype=np.complex128,
    ) -> "GaugeField":
        """Haar-random (infinite-temperature) configuration."""
        u = su3.random_su3((4,) + lattice.shape, rng=rng).astype(dtype)
        return cls(lattice, u)

    @classmethod
    def warm(
        cls,
        lattice: Lattice4D,
        eps: float = 0.3,
        rng: np.random.Generator | int | None = None,
        dtype=np.complex128,
    ) -> "GaugeField":
        """Links a distance ~``eps`` from the identity — a smooth but
        non-trivial background for operator and solver tests, C-contiguous."""
        u = su3.random_su3_near_identity((4,) + lattice.shape, eps=eps, rng=rng)
        return cls(lattice, np.ascontiguousarray(u, dtype=dtype))

    # -- basics ---------------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype

    def copy(self) -> "GaugeField":
        return GaugeField(self.lattice, self.u.copy())

    def astype(self, dtype) -> "GaugeField":
        """Precision cast (fp32 gauge fields feed the mixed-precision inner
        solver)."""
        return GaugeField(self.lattice, self.u.astype(dtype))

    def reunitarize(self) -> None:
        """Project every link back onto SU(3) in place (roundoff hygiene for
        long HMC streams)."""
        self.u = su3.reunitarize(self.u)

    def unitarity_violation(self) -> float:
        return su3.unitarity_violation(self.u)

    def unitarity_drift(self) -> np.ndarray:
        """Per-link ``max |u^dagger u - 1|`` map, shape ``(4, T, Z, Y, X)``.

        The localised form of :meth:`unitarity_violation`; the guard layer
        uses it to find (and reproject) individual corrupted links."""
        return su3.unitarity_drift(self.u)

    def mu(self, mu: int) -> np.ndarray:
        """The link field along direction ``mu`` (view, not copy)."""
        return self.u[mu]

    def nbytes(self) -> int:
        return self.u.nbytes

    def __eq__(self, other: object) -> bool:  # pragma: no cover - convenience
        return (
            isinstance(other, GaugeField)
            and self.lattice == other.lattice
            and np.array_equal(self.u, other.u)
        )
