"""The gauge side of molecular dynamics on link planes (:mod:`repro.su3.planes`).

Plane products against ``@``, the Cayley-Hamilton exponential against
``eigh``, the plane forces against the seed's code and numerical
gradients, the integrators' reversibility, ``<exp(-dH)> = 1`` and
unitarity on 4^4, and the campaign seam that keeps the seed's MD for
:class:`~repro.campaign.HMCCampaign`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3
from repro.campaign import CampaignConfig, HMCCampaign
from repro.campaign._seed_md import SeedWilsonGaugeAction, _seed_drift
from repro.dirac import WilsonDirac
from repro.fields import GaugeField, inner, random_fermion
from repro.gammas import spin_projector_matrix
from repro.hmc import (
    HMC,
    TwoFlavorWilsonAction,
    WilsonGaugeAction,
    heatbath_sweep,
    leapfrog,
    omelyan,
    sample_momenta,
    wilson_bilinear_force,
)
from repro.hmc.integrator import _drift
from repro.lattice import Lattice4D, shift_with_phase
from repro.su3 import planes

seeds = st.integers(0, 2**32 - 1)
shapes = st.sampled_from([(2, 2, 2, 2), (4, 2, 6, 2), (2, 4, 2, 6), (6, 2, 2, 4)])
PHASES = [(-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (np.exp(0.3j), 1.0, -1.0, np.exp(-1.1j))]


def _on_planes(fn, *arrays):
    """``fn`` of the plane forms of (G, n, 3, 3) arrays, back as matrices."""
    return planes.from_planes(fn(*(planes.to_planes(a) for a in arrays)), arrays[0].shape[1:-2])


def _einsum_bilinear(u, x, y, phases) -> np.ndarray:
    """The bilinear as four-spinor colour outer products, ``(1/2) Ta(C1 - C2)``:
    the seed's formulation, the reference the half-spinor form equals."""
    out = np.empty_like(u)
    for mu in range(4):
        w1 = np.einsum("st,...tc->...sc", spin_projector_matrix(mu, -1), y)
        outer1 = np.einsum("...tc,...ta->...ca", shift_with_phase(x, mu, 1, phases[mu]), w1.conj())
        w2 = shift_with_phase(np.einsum("st,...tc->...sc", spin_projector_matrix(mu, 1), y),
                              mu, 1, phases[mu])
        outer2 = np.einsum("...tc,...ta->...ca", x, w2.conj())
        out[mu] = 0.5 * su3.project_algebra(u[mu] @ outer1 - outer2 @ su3.dag(u[mu]))
    return out


def _algebra_with_eigenvalues(lam, rng) -> np.ndarray:
    """``i V diag(lam) V^dagger``, traceless anti-Hermitian, for 16 Haar ``V``."""
    v = su3.random_su3((1, 16), rng=rng)
    x = 1j * np.einsum("gnij,j,gnkj->gnik", v, np.asarray(lam, float), np.conj(v))
    return su3.project_algebra(x)


class TestPlaneAlgebra:
    @given(st.sampled_from([(1, 7), (4, 16), (3, 5)]), st.booleans(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_products_equal_matmul(self, lead, algebra, seed):
        rng = np.random.default_rng(seed)
        draw = su3.random_algebra if algebra else su3.random_su3
        a, b = draw(lead, rng=rng), su3.random_su3(lead, rng=rng)
        for fn, ref in ((planes.mul, a @ b),
                        (planes.mul_dag, a @ su3.dag(b)),
                        (planes.dag_mul, su3.dag(a) @ b)):
            assert np.abs(_on_planes(fn, a, b) - ref).max() <= 1e-14, fn.__name__

    def test_layout_round_trip_is_exact(self):
        u = su3.random_su3((4, 3, 2, 5), rng=1)
        p = planes.to_planes(u)
        assert p.shape == (4, 2, 3, 3, 30)
        assert planes.from_planes(p, (3, 2, 5)).tobytes() == u.tobytes()

    def test_project_algebra_is_ta(self):
        a = su3.random_su3((2, 40), rng=2) * 1.7 + 0.3
        got = _on_planes(lambda p: planes.project_algebra(p, 0.25), a)
        assert np.abs(got - 0.25 * su3.project_algebra(a)).max() <= 1e-15


class TestCayleyHamilton:
    @given(
        st.one_of(
            st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 5e-3, 7e-3, 9e-3, 0.3, 3.0]),
            st.floats(1e-9, 3.0),
        ),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_eigh(self, scale, seed):
        """Across the small-angle branch (``c1 < 1e-4``, near ``scale`` 7e-3)
        and down to ``X = 0``."""
        x = su3.random_algebra((1, 64), rng=seed, scale=scale)
        got = _on_planes(planes.expm, x)
        assert np.abs(got - su3.expm_su3(x)).max() <= 1e-14

    @given(st.floats(-2.0, 2.0), st.sampled_from(["double", "zero"]), seeds)
    @settings(max_examples=40, deadline=None)
    def test_degenerate_eigenvalues(self, a, kind, seed):
        """Two equal eigenvalues (``|c0| = c0_max``, ``w = 0``) or a zero one
        (``c0 = 0``)."""
        lam = (a, a, -2.0 * a) if kind == "double" else (a, -a, 0.0)
        x = _algebra_with_eigenvalues(lam, np.random.default_rng(seed))
        assert np.abs(_on_planes(planes.expm, x) - su3.expm_su3(x)).max() <= 1e-14

    @given(st.floats(1e-8, 3.0), seeds)
    @settings(max_examples=25, deadline=None)
    def test_inverse_is_the_dagger_bit_for_bit(self, scale, seed):
        x = su3.random_algebra((2, 32), rng=seed, scale=scale)
        forward, back = _on_planes(planes.expm, x), _on_planes(planes.expm, -x)
        assert back.tobytes() == su3.dag(forward).tobytes()

    def test_unitarity_after_100_drifts_no_worse_than_eigh(self):
        gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=1)
        pi = sample_momenta(gauge, rng=2)
        ch, seed_md = gauge.copy(), gauge.copy()
        for _ in range(100):
            _drift(ch, pi, 0.05)
            _seed_drift(seed_md, pi, 0.05)
        assert ch.unitarity_violation() <= seed_md.unitarity_violation()
        assert np.abs(ch.u - seed_md.u).max() < 1e-12


class TestPlaneForces:
    @given(shapes, seeds)
    @settings(max_examples=10, deadline=None)
    def test_gauge_force_equals_the_staple_sum_force(self, shape, seed):
        gauge = GaugeField.hot(Lattice4D(shape), rng=seed)
        new, old = WilsonGaugeAction(5.5).force(gauge), SeedWilsonGaugeAction(5.5).force(gauge)
        assert np.abs(new - old).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 2, 6, 2), (2, 2, 2, 2)])
    def test_gauge_force_is_the_gradient(self, shape):
        gauge = GaugeField.warm(Lattice4D(shape), eps=0.6, rng=3)
        action = WilsonGaugeAction(5.5)
        _assert_gradient(action, gauge, action.force(gauge), np.random.default_rng(4), 1e-6)

    @given(shapes, st.sampled_from(range(len(PHASES))), seeds)
    @settings(max_examples=12, deadline=None)
    def test_bilinear_is_the_gradient_of_its_form(self, shape, phases, seed):
        """``wilson_bilinear_force(X, Y)`` is ``-dS/dtheta`` of
        ``S = -2 Re Y^dag M X`` at fixed ``X``, ``Y``: the term every Wilson
        fermion force is built from (two-flavour once, RHMC per pole)."""
        rng = np.random.default_rng(seed)
        lat = Lattice4D(shape)
        gauge = GaugeField.hot(lat, rng=rng)
        x, y = random_fermion(lat, rng=rng), random_fermion(lat, rng=rng)

        class Form:
            def action(self, g):
                return -2.0 * inner(y, WilsonDirac(g, 0.3, PHASES[phases]).apply(x)).real

        force = -wilson_bilinear_force(gauge, x, y, PHASES[phases])
        _assert_gradient(Form(), gauge, force, rng, 1e-6)

    @given(shapes, st.sampled_from(range(len(PHASES))), seeds)
    @settings(max_examples=12, deadline=None)
    def test_bilinear_equals_the_four_spinor_form(self, shape, phases, seed):
        rng = np.random.default_rng(seed)
        lat = Lattice4D(shape)
        u = GaugeField.hot(lat, rng=rng).u
        x, y = random_fermion(lat, rng=rng), random_fermion(lat, rng=rng)
        got = wilson_bilinear_force(GaugeField(lat, u), x, y, PHASES[phases])
        assert np.abs(got - _einsum_bilinear(u, x, y, PHASES[phases])).max() <= 1e-13

    def test_two_flavour_force_is_the_gradient_on_4x2x6x2(self):
        gauge = GaugeField.hot(Lattice4D((4, 2, 6, 2)), rng=5)
        pf = TwoFlavorWilsonAction(0.5, solver_tol=1e-12, force_tol=1e-12)
        pf.refresh(gauge, rng=6)
        _assert_gradient(pf, gauge, pf.force(gauge), np.random.default_rng(7), 1e-6)


def _assert_gradient(action, gauge, force, rng, rel, n=3, eps=1e-4):
    """Force coefficients equal ``dS/dtheta_a`` by central differences at ``n`` links."""
    lam = su3.gellmann_matrices()
    for _ in range(n):
        mu, a = int(rng.integers(4)), int(rng.integers(8))
        site = tuple(int(rng.integers(e)) for e in gauge.lattice.shape)
        up, dn = gauge.copy(), gauge.copy()
        up.u[(mu,) + site] = su3.expm_su3(0.5j * eps * lam[a]) @ up.u[(mu,) + site]
        dn.u[(mu,) + site] = su3.expm_su3(-0.5j * eps * lam[a]) @ dn.u[(mu,) + site]
        num = (action.action(up) - action.action(dn)) / (2 * eps)
        coeff = su3.algebra_to_coeffs(force[(mu,) + site])[a]
        assert coeff == pytest.approx(num, rel=rel, abs=1e-8), (mu, site, a)


class TestPlaneIntegration:
    @pytest.mark.parametrize("scheme", [leapfrog, omelyan])
    def test_quenched_4x4_reversibility(self, scheme):
        gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=11)
        pi = sample_momenta(gauge, rng=12)
        u0, action = gauge.u.copy(), WilsonGaugeAction(5.6)
        scheme(gauge, pi, action, eps=0.1, n_steps=10)
        assert np.abs(gauge.u - u0).max() > 0.1
        pi *= -1.0
        scheme(gauge, pi, action, eps=0.1, n_steps=10)
        assert np.abs(gauge.u - u0).max() < 1e-11

    def test_dynamical_4x4_reversibility(self):
        """The ``hmc_stream`` trajectory: 8 Omelyan steps of 0.0625."""
        gauge = GaugeField.warm(Lattice4D((4, 4, 4, 4)), eps=0.3, rng=13)
        pf = TwoFlavorWilsonAction(0.5)
        hmc = HMC([WilsonGaugeAction(5.6), pf])  # for its composite action
        pf.refresh(gauge, rng=14)
        pi = sample_momenta(gauge, rng=15)
        u0 = gauge.u.copy()
        omelyan(gauge, pi, hmc._action, eps=0.0625, n_steps=8)
        pi *= -1.0
        omelyan(gauge, pi, hmc._action, eps=0.0625, n_steps=8)
        assert np.abs(gauge.u - u0).max() < 1e-11

    def test_exp_minus_dh_averages_to_one_on_4x4(self):
        """Creutz on a short quenched 4^4 stream from a heatbath-thermalised
        start: 30 Omelyan trajectories of length 1."""
        gauge = GaugeField.cold(Lattice4D((4, 4, 4, 4)))
        rng = np.random.default_rng(7)
        for _ in range(10):
            heatbath_sweep(gauge, 5.6, rng=rng)
        hmc = HMC(WilsonGaugeAction(5.6), step_size=0.2, n_steps=5, integrator="omelyan", rng=8)
        results = hmc.run(gauge, 30)
        weights = np.exp([-r.delta_h for r in results])
        sigma = weights.std(ddof=1) / np.sqrt(len(weights))
        assert 1e-3 < sigma < 0.1  # the step is coarse enough to test something
        assert abs(weights.mean() - 1.0) < 3.0 * sigma
        assert gauge.unitarity_violation() < 1e-12


class TestCampaignSeam:
    #: SHA-256 of the ledger below, journaled by the seed's MD (``eigh``
    #: exponential, ``staple_sum`` force) before the plane MD landed.
    SEED_LEDGER = "9ff7d46a904f049d815fec405a83fad6b7ea567603cf2b6bdd82822c8c718954"

    @staticmethod
    def _ledger(directory) -> bytes:
        """Six trajectories of the ``hmc_stream`` workload's quenched campaign."""
        config = CampaignConfig(shape=(4, 4, 4, 4), beta=5.6, n_trajectories=6, step_size=0.1,
                                n_steps=10, seed=20130817, checkpoint_interval=1)
        HMCCampaign(directory, config).run()
        return (directory / "ledger.jsonl").read_bytes()

    def test_campaign_journals_the_seed_md_bytes(self, tmp_path, monkeypatch):
        assert hashlib.sha256(self._ledger(tmp_path / "seam")).hexdigest() == self.SEED_LEDGER
        # The same campaign on the plane MD: the same physics to rounding,
        # other bytes — the seam is what holds the pinned ledger.
        from repro.campaign import runner

        monkeypatch.setattr(runner, "SeedHMC", HMC)
        monkeypatch.setattr(runner, "SeedWilsonGaugeAction", WilsonGaugeAction)
        plane = self._ledger(tmp_path / "planes")
        assert hashlib.sha256(plane).hexdigest() != self.SEED_LEDGER
        seed_rows = (tmp_path / "seam" / "ledger.jsonl").read_text().splitlines()
        for a, b in zip(map(json.loads, seed_rows), map(json.loads, plane.decode().splitlines())):
            assert a["accepted"] == b["accepted"]
            assert a["delta_h"] == pytest.approx(b["delta_h"], rel=1e-9, abs=1e-10)
