"""Floating-point operation accounting, lattice-QCD convention.

Lattice codes (MILC, Chroma, QUDA, Grid) report Dslash performance using a
fixed nominal flop count per site; we follow the same convention so that the
numbers printed by the benchmark harness are directly comparable.

Nominal counts (4-D Wilson, complex arithmetic expanded to real flops):

* SU(3) matrix  x  half-spinor (2 spin, 3 colour):    2 * (3x3 complex mat-vec)
  = 2 * 66 = 132 flops.
* Spin projection (1 ∓ γμ): 12 complex adds  = 24 flops  per direction.
* Reconstruction + accumulate: 12 complex adds = 24 flops per direction.
* 8 directions: 8 * (132 + 24 + 24) = 1440; the community convention
  discounts the final accumulate of the first direction and a few
  projection signs and quotes **1320 flops/site** — we use 1320.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FlopCounter",
    "WILSON_DSLASH_FLOPS_PER_SITE",
    "CLOVER_FLOPS_PER_SITE",
    "SU3_MATMUL_FLOPS",
    "SU3_MATVEC_FLOPS",
    "PLAQUETTE_FLOPS_PER_SITE",
    "dslash_flops",
    "cg_linalg_flops_per_iter",
    "vector_reals",
]

#: Community-standard nominal Wilson Dslash flop count per lattice site.
WILSON_DSLASH_FLOPS_PER_SITE = 1320

#: Clover term application: 2 blocks of 6x6 Hermitian mat-vec per site.
#: 2 * (6*6 complex mul + 6*5 complex add) = 2 * (36*6 + 30*2) = 552.
CLOVER_FLOPS_PER_SITE = 552

#: One 3x3 complex matrix multiply = 9 * (6 mul-add flops) + ... = 198.
SU3_MATMUL_FLOPS = 198

#: One 3x3 complex matrix-vector multiply = 66 real flops.
SU3_MATVEC_FLOPS = 66

#: Average plaquette per site: 6 planes, each 3 SU(3) matmuls plus a real
#: trace (3 complex diagonal reals -> 2 adds after the 3 real parts; we
#: count re-trace as 2 flops): 6 * (3 * 198 + 2) = 3576.
PLAQUETTE_FLOPS_PER_SITE = 6 * (3 * SU3_MATMUL_FLOPS + 2)


def dslash_flops(volume: int, *, clover: bool = False) -> int:
    """Nominal flops for one Wilson (optionally clover) Dslash application."""
    per_site = WILSON_DSLASH_FLOPS_PER_SITE + (CLOVER_FLOPS_PER_SITE if clover else 0)
    return per_site * volume


def vector_reals(x) -> int:
    """Real numbers in the array ``x``: two per element of a complex array, one of a real one."""
    return x.nbytes // x.real.itemsize


def cg_linalg_flops_per_iter(vector_reals: int) -> int:
    """Real flops of the non-operator part of one CG iteration.

    Two axpy (2 flops/real), one aypx (2), two inner products (2), acting on
    vectors of ``vector_reals`` real numbers.
    """
    return 10 * vector_reals


@dataclass
class FlopCounter:
    """Accumulates nominal flops by category.

    Operators and solvers charge their work here so the bench harness can
    convert wall time into MF/s and feed the machine model.
    """

    by_category: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, flops: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + int(flops)

    def total(self) -> int:
        return sum(self.by_category.values())

    def merge(self, other: "FlopCounter") -> None:
        for k, v in other.by_category.items():
            self.add(k, v)

    def reset(self) -> None:
        self.by_category.clear()
