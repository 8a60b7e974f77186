"""Vectorised SU(3) matrix algebra.

All routines operate on numpy arrays whose trailing two axes are the 3x3
colour indices; any leading axes (lattice sites, directions) are broadcast.
Gauge links live in the group SU(3); momenta and forces live in the algebra
su(3) (traceless anti-Hermitian matrices).  :mod:`repro.su3.planes` holds
the same algebra on site-minor link planes, which the molecular dynamics
runs on.
"""

from repro.su3.matrix import (
    NC,
    mul,
    mul_dag,
    dag_mul,
    dag,
    trace,
    re_trace,
    identity,
    identity_like,
    det,
    frobenius_norm,
)
from repro.su3.group import (
    random_su3,
    random_su3_near_identity,
    project_su3,
    reunitarize,
    expm_su3,
    project_algebra,
    random_algebra,
    unitarity_violation,
    unitarity_drift,
)
from repro.su3.gellmann import gellmann_matrices, algebra_to_coeffs, coeffs_to_algebra
from repro.su3.su2 import (
    su2_subgroups,
    extract_su2,
    embed_su2,
    su2_from_pauli,
    pauli_from_su2,
)

__all__ = [
    "NC",
    "mul",
    "mul_dag",
    "dag_mul",
    "dag",
    "trace",
    "re_trace",
    "identity",
    "identity_like",
    "det",
    "frobenius_norm",
    "random_su3",
    "random_su3_near_identity",
    "project_su3",
    "reunitarize",
    "expm_su3",
    "project_algebra",
    "random_algebra",
    "unitarity_violation",
    "unitarity_drift",
    "gellmann_matrices",
    "algebra_to_coeffs",
    "coeffs_to_algebra",
    "su2_subgroups",
    "extract_su2",
    "embed_su2",
    "su2_from_pauli",
    "pauli_from_su2",
]
