"""Smearing and Wilson-flow tests: smoothing, covariance, scale setting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3
from repro.fields import GaugeField
from repro.hmc.action import plaquette_force
from repro.lattice import Lattice4D, shift
from repro.loops import average_plaquette
from repro.smear import (
    FlowPoint,
    ape_smear,
    find_t0,
    flow_energy_density,
    stout_smear,
    wilson_flow,
)


#: Lattices with extent-2 and extent-3 axes, where ``x + 2 mu`` wraps back
#: onto ``x`` or ``x - mu``, beside the 4^4 of the fixture.
shapes = st.sampled_from([(4, 4, 4, 4), (2, 3, 4, 3), (3, 2, 2, 4), (2, 4, 3, 2)])
seeds = st.integers(0, 2**32 - 1)


def _gauge_transform(gauge: GaugeField, rng_seed: int) -> tuple[GaugeField, np.ndarray]:
    """The transformed field ``g(x) U_mu(x) g(x+mu)^dag`` and ``g``."""
    g = su3.random_su3(gauge.lattice.shape, rng=rng_seed)
    out = gauge.copy()
    for mu in range(4):
        out.u[mu] = su3.mul(su3.mul(g, gauge.u[mu]), su3.dag(shift(g, mu, 1)))
    return out, g


@pytest.fixture
def rough_gauge():
    return GaugeField.warm(Lattice4D((4, 4, 4, 4)), eps=0.6, rng=314)


class TestApe:
    def test_raises_plaquette(self, rough_gauge):
        smeared = ape_smear(rough_gauge, alpha=0.5, n_iter=2)
        assert average_plaquette(smeared.u) > average_plaquette(rough_gauge.u)

    def test_stays_on_group(self, rough_gauge):
        smeared = ape_smear(rough_gauge, alpha=0.5, n_iter=3)
        assert smeared.unitarity_violation() < 1e-10

    def test_cold_is_fixed_point(self, tiny_lattice):
        cold = GaugeField.cold(tiny_lattice)
        smeared = ape_smear(cold, alpha=0.5, n_iter=2)
        assert np.allclose(smeared.u, cold.u, atol=1e-12)

    def test_input_untouched(self, rough_gauge):
        u0 = rough_gauge.u.copy()
        ape_smear(rough_gauge, alpha=0.4, n_iter=1)
        assert np.array_equal(rough_gauge.u, u0)

    def test_gauge_covariance(self, rough_gauge):
        """Smearing commutes with gauge transformations (plaquette check)."""
        transformed, _ = _gauge_transform(rough_gauge, 11)
        p1 = average_plaquette(ape_smear(rough_gauge, 0.5, 2).u)
        p2 = average_plaquette(ape_smear(transformed, 0.5, 2).u)
        assert p1 == pytest.approx(p2, abs=1e-10)

    def test_validates(self, rough_gauge):
        with pytest.raises(ValueError):
            ape_smear(rough_gauge, alpha=1.5)
        with pytest.raises(ValueError):
            ape_smear(rough_gauge, alpha=0.5, n_iter=-1)

    def test_zero_iterations_identity(self, rough_gauge):
        assert np.array_equal(ape_smear(rough_gauge, 0.5, 0).u, rough_gauge.u)


class TestStout:
    def test_raises_plaquette(self, rough_gauge):
        smeared = stout_smear(rough_gauge, rho=0.1, n_iter=3)
        assert average_plaquette(smeared.u) > average_plaquette(rough_gauge.u)

    def test_exactly_on_group(self, rough_gauge):
        """Stout needs no projection: exp of algebra times group element."""
        smeared = stout_smear(rough_gauge, rho=0.15, n_iter=5)
        assert smeared.unitarity_violation() < 1e-12

    def test_rho_zero_identity(self, rough_gauge):
        assert np.allclose(stout_smear(rough_gauge, 0.0, 2).u, rough_gauge.u, atol=1e-13)

    @given(shapes, seeds)
    @settings(max_examples=10, deadline=None)
    def test_gauge_covariance(self, shape, seed):
        """Stout links transform as links: ``U'(g U g^dag) = g U' g^dag``."""
        gauge = GaugeField.warm(Lattice4D(shape), eps=0.6, rng=seed)
        transformed, _ = _gauge_transform(gauge, seed + 1)
        smeared = stout_smear(gauge, 0.1, 2)
        expected, _ = _gauge_transform(smeared, seed + 1)
        got = stout_smear(transformed, 0.1, 2)
        assert np.abs(got.u - expected.u).max() < 1e-12
        assert average_plaquette(got.u) == pytest.approx(average_plaquette(smeared.u), abs=1e-10)

    def test_validates(self, rough_gauge):
        with pytest.raises(ValueError):
            stout_smear(rough_gauge, rho=-0.1)


class TestWilsonFlow:
    def test_energy_decreases_monotonically(self, rough_gauge):
        """The flow is a gradient flow: S (hence E) cannot increase."""
        _, hist = wilson_flow(rough_gauge, t_max=0.3, eps=0.03)
        energies = [p.energy for p in hist]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_plaquette_rises_towards_one(self, rough_gauge):
        flowed, hist = wilson_flow(rough_gauge, t_max=0.5, eps=0.05)
        assert hist[-1].plaquette > hist[0].plaquette
        assert average_plaquette(flowed.u) == pytest.approx(hist[-1].plaquette)

    def test_field_stays_on_group(self, rough_gauge):
        flowed, _ = wilson_flow(rough_gauge, t_max=0.2, eps=0.02)
        assert flowed.unitarity_violation() < 1e-11

    def test_cold_field_is_stationary(self, tiny_lattice):
        cold = GaugeField.cold(tiny_lattice)
        flowed, hist = wilson_flow(cold, t_max=0.2, eps=0.05)
        assert np.allclose(flowed.u, cold.u, atol=1e-12)
        assert hist[-1].energy == pytest.approx(0.0, abs=1e-12)

    def test_step_size_third_order_convergence(self, rough_gauge):
        """RK3 global error ~ eps^3: halving eps shrinks the deviation from
        a fine reference by ~8x."""
        ref, _ = wilson_flow(rough_gauge, t_max=0.2, eps=0.005)
        f1, _ = wilson_flow(rough_gauge, t_max=0.2, eps=0.04)
        f2, _ = wilson_flow(rough_gauge, t_max=0.2, eps=0.02)
        d1 = np.max(np.abs(f1.u - ref.u))
        d2 = np.max(np.abs(f2.u - ref.u))
        assert d2 < d1
        order = np.log2(d1 / d2)
        assert 2.0 < order < 4.5, order

    @given(shapes, seeds)
    @settings(max_examples=10, deadline=None)
    def test_gauge_covariance_of_energy(self, shape, seed):
        """The flow gradient is covariant, ``Z(g U g^dag) = g Z g^dag`` site by
        site, and so the flowed energy is invariant."""
        gauge = GaugeField.warm(Lattice4D(shape), eps=0.6, rng=seed)
        transformed, g = _gauge_transform(gauge, seed + 1)
        z = plaquette_force(gauge.u, -1.0)
        expected = su3.mul(su3.mul(g, z), su3.dag(g))
        assert np.abs(plaquette_force(transformed.u, -1.0) - expected).max() < 1e-12
        _, h1 = wilson_flow(gauge, t_max=0.1, eps=0.05)
        _, h2 = wilson_flow(transformed, t_max=0.1, eps=0.05)
        assert h1[-1].energy == pytest.approx(h2[-1].energy, rel=1e-8)

    def test_validates(self, rough_gauge):
        with pytest.raises(ValueError):
            wilson_flow(rough_gauge, t_max=0.1, eps=0.0)
        for every in (0, -2):
            with pytest.raises(ValueError):
                wilson_flow(rough_gauge, t_max=0.1, eps=0.05, measure_every=every)

    def test_find_t0(self):
        hist = [
            FlowPoint(0.0, 10.0, 0.0, 0.5),
            FlowPoint(0.1, 8.0, 0.08, 0.6),
            FlowPoint(0.2, 7.0, 0.28, 0.7),
            FlowPoint(0.3, 6.0, 0.54, 0.8),
        ]
        t0 = find_t0(hist, target=0.3)
        assert t0 == pytest.approx(0.2 + 0.1 * (0.3 - 0.28) / (0.54 - 0.28))

    def test_find_t0_not_reached(self):
        hist = [FlowPoint(0.0, 1.0, 0.0, 0.5), FlowPoint(0.1, 0.9, 0.009, 0.6)]
        assert find_t0(hist) is None

    def test_t0_reached_on_hot_field(self):
        """A hot field has huge E: t^2 E crosses 0.3 quickly."""
        gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=15)
        _, hist = wilson_flow(gauge, t_max=0.6, eps=0.02)
        t0 = find_t0(hist)
        assert t0 is not None and 0.0 < t0 < 0.6
