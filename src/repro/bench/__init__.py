"""Experiment drivers behind the benchmark suite.

Each ``eN_*`` function regenerates one table/figure of the reconstructed
evaluation (see DESIGN.md and EXPERIMENTS.md) and returns both the raw data
and a paper-style :class:`~repro.util.Table`.  The ``benchmarks/`` directory
wraps these in pytest-benchmark entries; the example scripts call them
directly.
"""

from repro.bench.e1_dslash import e1_dslash_performance
from repro.bench.e2_e3_scaling import e2_weak_scaling, e3_strong_scaling
from repro.bench.e2_e3_measured import (
    e2_weak_scaling_measured,
    e3_strong_scaling_measured,
)
from repro.bench.e4_solvers import e4_solver_comparison
from repro.bench.e5_precision import e5_precision_history
from repro.bench.e6_comm import e6_comm_fraction
from repro.bench.e7_hmc import e7_dh_scaling, e7_dynamical, e7_hmc_validation
from repro.bench.e8_spectrum import e8_spectrum
from repro.bench.e9_model import e9_model_validation
from repro.bench.e10_ablations import e10_ablations
from repro.bench.e11_discretizations import e11_discretizations
from repro.bench.e12_deflation import e12_deflation
from repro.bench.e13_flow import e13_flow
from repro.bench.e14_potential import e14_static_potential
from repro.bench.e15_autocorr import e15_autocorrelation
from repro.bench.e16_campaign import e16_campaign_resilience
from repro.bench.e17_guard import e17_guard_overhead
from repro.bench.e18_telemetry import e18_telemetry_overhead
from repro.bench.e19_batch import e19_batch
from repro.bench.e20_store import e20_store
from repro.bench.e21_fleet import e21_fleet
from repro.bench.e22_comm_model import e22_comm_model

__all__ = [
    "e11_discretizations",
    "e12_deflation",
    "e13_flow",
    "e14_static_potential",
    "e15_autocorrelation",
    "e16_campaign_resilience",
    "e17_guard_overhead",
    "e18_telemetry_overhead",
    "e19_batch",
    "e20_store",
    "e21_fleet",
    "e22_comm_model",
    "e1_dslash_performance",
    "e2_weak_scaling",
    "e2_weak_scaling_measured",
    "e3_strong_scaling",
    "e3_strong_scaling_measured",
    "e4_solver_comparison",
    "e5_precision_history",
    "e6_comm_fraction",
    "e7_hmc_validation",
    "e7_dh_scaling",
    "e7_dynamical",
    "e8_spectrum",
    "e9_model_validation",
    "e10_ablations",
]
