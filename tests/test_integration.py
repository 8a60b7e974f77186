"""Cross-module integration tests: the pipelines a production campaign runs.

Each test chains several subsystems end-to-end and checks a physics- or
consistency-level property of the combined result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.comm import RankGrid, VirtualComm
from repro.dirac import (
    DecomposedWilsonDirac,
    StaggeredDirac,
    WilsonDirac,
    solve_staggered_eo,
)
from repro.dirac.staggered import random_staggered
from repro.fields import GaugeField, norm, random_fermion
from repro.gaugefix import gauge_condition_violation, gauge_fix
from repro.hmc import HMC, WilsonGaugeAction, heatbath_sweep, overrelaxation_sweep
from repro.lattice import Lattice4D
from repro.loops import average_plaquette
from repro.measure import pion_correlator, point_propagator
from repro.smear import stout_smear, wilson_flow
from repro.solvers import cg, mixed_precision_cg, solve_wilson
from repro.stats import jackknife


@pytest.fixture(scope="module")
def thermal_gauge():
    """One thermalised beta=5.9 configuration shared by the pipelines."""
    rng = np.random.default_rng(64)
    gauge = GaugeField.hot(Lattice4D((8, 4, 4, 4)), rng=rng)
    for _ in range(15):
        heatbath_sweep(gauge, 5.9, rng)
        overrelaxation_sweep(gauge, 5.9, rng)
    gauge.reunitarize()
    return gauge


class TestStaggeredEvenOdd:
    def test_matches_direct_solve(self, thermal_gauge):
        op = StaggeredDirac(thermal_gauge, mass=0.4)
        b = random_staggered(op.lattice, rng=1)
        res_eo = solve_staggered_eo(op, b, tol=1e-10)
        assert res_eo.converged
        assert norm(op.apply(res_eo.x) - b) / norm(b) < 1e-8
        res_full = cg(op.normal_op(), op.apply_dagger(b), tol=1e-10, max_iter=20000)
        assert norm(res_eo.x - res_full.x) / norm(res_full.x) < 1e-7

    def test_halves_the_work(self, thermal_gauge):
        op = StaggeredDirac(thermal_gauge, mass=0.2)
        b = random_staggered(op.lattice, rng=2)
        res_eo = solve_staggered_eo(op, b, tol=1e-9)
        res_full = cg(op.normal_op(), op.apply_dagger(b), tol=1e-9, max_iter=20000)
        assert res_eo.converged
        assert res_eo.flops < res_full.flops

    def test_zero_mass_rejected(self, thermal_gauge):
        op = StaggeredDirac(thermal_gauge, mass=0.0)
        with pytest.raises(ValueError):
            solve_staggered_eo(op, random_staggered(op.lattice, rng=3))


class TestGaugeInvarianceOfSpectrum:
    def test_pion_correlator_invariant_under_gauge_fixing(self, thermal_gauge):
        """Gauge fixing is a gauge transformation: the (gauge-invariant)
        point-point pion correlator must not change."""
        dirac = WilsonDirac(thermal_gauge, mass=0.5)
        c_before = pion_correlator(point_propagator(dirac, tol=1e-9))
        fixed, res = gauge_fix(thermal_gauge, tol=1e-9, max_iter=400)
        assert res.converged
        dirac_fixed = WilsonDirac(fixed, mass=0.5)
        c_after = pion_correlator(point_propagator(dirac_fixed, tol=1e-9))
        assert np.allclose(c_before, c_after, rtol=1e-6)


class TestSmearedBackgroundSolve:
    def test_smearing_reduces_additive_mass_shift(self, thermal_gauge):
        """Wilson quarks pick up a (negative) additive mass renormalisation
        from UV link noise; smearing removes that noise, so at fixed bare
        mass the effective quark gets *lighter*: the lowest eigenvalue of
        M^dag M drops.  (This is also why smeared solves at fixed bare mass
        take more, not fewer, iterations.)"""
        from repro.solvers import lanczos

        mass = 0.1
        shape = thermal_gauge.lattice.shape + (4, 3)
        smooth_gauge = stout_smear(thermal_gauge, rho=0.12, n_iter=3)
        assert average_plaquette(smooth_gauge.u) > average_plaquette(thermal_gauge.u)
        lo_rough = lanczos(
            WilsonDirac(thermal_gauge, mass).normal_op(), 1, shape, krylov_dim=40, rng=4
        ).values[0]
        lo_smooth = lanczos(
            WilsonDirac(smooth_gauge, mass).normal_op(), 1, shape, krylov_dim=40, rng=4
        ).values[0]
        assert lo_smooth < lo_rough
        # Both remain comfortably solvable.
        b = random_fermion(thermal_gauge.lattice, rng=5)
        assert solve_wilson(WilsonDirac(smooth_gauge, mass), b, tol=1e-8).converged


class TestDecomposedMixedPrecision:
    def test_decomposed_operator_in_mixed_solver(self, thermal_gauge):
        """The decomposed (virtual-MPI) operator composes with the mixed-
        precision solver exactly like the single-domain one."""
        comm = VirtualComm(RankGrid((2, 1, 1, 1)))
        dec = DecomposedWilsonDirac(thermal_gauge, mass=0.4, comm=comm)
        nop64 = dec.normal_op()
        nop32 = WilsonDirac(thermal_gauge, 0.4).astype(np.complex64).normal_op()
        b = random_fermion(thermal_gauge.lattice, rng=5)
        rhs = dec.apply_dagger(b)
        res = mixed_precision_cg(nop64, nop32, rhs, tol=1e-9)
        assert res.converged
        ref = WilsonDirac(thermal_gauge, 0.4)
        assert norm(ref.normal_op().apply(res.x) - rhs) / norm(rhs) < 1e-8
        assert comm.trace.message_count() > 0  # outer loop really decomposed


class TestFlowThenMeasure:
    def test_flowed_ensemble_statistics(self):
        """Generate a mini ensemble, flow each config a little, jackknife
        the smoothed plaquette — the full measurement-chain shape."""
        rng = np.random.default_rng(65)
        gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=rng)
        for _ in range(10):
            heatbath_sweep(gauge, 5.7, rng)
        values = []
        for _ in range(6):
            for _ in range(3):
                heatbath_sweep(gauge, 5.7, rng)
            flowed, _ = wilson_flow(gauge, t_max=0.2, eps=0.05)
            values.append(average_plaquette(flowed.u))
        est, err = jackknife(np.array(values))
        assert 0.6 < est < 1.0  # flowed plaquette well above thermal ~0.55
        assert 0 < err < 0.05


class TestHMCThenSpectrum:
    def test_hmc_stream_feeds_measurement(self):
        """HMC-generated configuration flows straight into spectroscopy."""
        lat = Lattice4D((4, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.3, rng=66)
        hmc = HMC(WilsonGaugeAction(5.6), step_size=0.05, n_steps=8, rng=67)
        hmc.run(gauge, 5)
        assert gauge.unitarity_violation() < 1e-9
        dirac = WilsonDirac(gauge, mass=0.8)
        b = random_fermion(lat, rng=68)
        res = solve_wilson(dirac, b, tol=1e-8)
        assert res.converged


def test_import_leaves_scipy_unloaded():
    """``import repro`` costs no scipy: the three fits that use it import it
    when called (40 MB of resident memory a process, forked ranks included)."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", "import repro, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
