"""Kernel backends and workspaces for the Dslash hot path.

The performance subsystem of the operator stack: a scratch-buffer arena
(:class:`Workspace`), allocation-free slab shifts (:func:`shift_into`),
the fused site-minor split-complex hopping kernel
(:class:`FusedHopping`) and the same core on a rank's halo-extended
block (:class:`HaloStencil`), and a registry of the two named kernels
(``reference`` / ``fused``) selectable per operator or via the
``REPRO_KERNEL`` environment variable.

Design rule — *two Dslash paths, one truth*: the shift-and-einsum
``reference`` kernel in :mod:`repro.dirac.hopping` stays the executable
specification; the ``fused`` kernel reorganises memory traffic and
execution only and must agree with it bit-for-bit (enforced by tier-1
property tests).
"""

from repro.kernels.workspace import Workspace
from repro.kernels.shifts import shift_into
from repro.kernels.fused import FusedHopping
from repro.kernels.halo import HaloStencil, dagger_halo_links, split_boxes, full_box
from repro.kernels.registry import (
    KERNEL_ENV_VAR,
    DEFAULT_KERNEL,
    available_kernels,
    resolve_kernel_name,
    make_kernel,
)

__all__ = [
    "Workspace",
    "shift_into",
    "FusedHopping",
    "HaloStencil",
    "dagger_halo_links",
    "split_boxes",
    "full_box",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "available_kernels",
    "resolve_kernel_name",
    "make_kernel",
]
