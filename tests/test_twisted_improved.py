"""Twisted-mass operator and improved gauge-action tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3
from repro.dirac import TwistedMassDirac, WilsonDirac
from repro.fields import GaugeField, inner, norm, norm2, random_fermion
from repro.hmc import (
    DBW2_C1,
    HMC,
    IWASAKI_C1,
    ImprovedGaugeAction,
    LUSCHER_WEISZ_C1,
    WilsonGaugeAction,
    kinetic_energy,
    leapfrog,
    sample_momenta,
)
from repro.lattice import Lattice4D
from repro.loops import LinkPlanes, rectangle_field
from repro.solvers import cg
from repro.su3 import planes

RNG = np.random.default_rng(33)

#: Lattices with extent-2 and extent-3 axes, where ``x + 2 mu`` wraps back
#: onto ``x`` or ``x - mu``.
shapes = st.sampled_from([(3, 3, 3, 3), (2, 3, 4, 3), (3, 2, 2, 4), (2, 4, 3, 2)])
seeds = st.integers(0, 2**32 - 1)


def _matmul_rectangle(u: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """``R_{mu nu}`` with ``@`` and ``np.roll``: the reference for the
    engine's rectangles."""
    def at(a, axis, n):  # a(x + n axis)
        return np.roll(a, -n, axis=axis)

    umu, unu = u[mu], u[nu]
    top = umu @ at(umu, mu, 1) @ at(unu, mu, 2)
    back = unu @ at(umu, nu, 1) @ at(at(umu, nu, 1), mu, 1)
    return top @ su3.dag(back)


class TestTwistedMass:
    def test_reduces_to_wilson_at_mu_zero(self, hot_gauge):
        psi = random_fermion(hot_gauge.lattice, rng=1)
        w = WilsonDirac(hot_gauge, 0.1).apply(psi)
        tm = TwistedMassDirac(hot_gauge, 0.1, mu=0.0).apply(psi)
        assert np.allclose(w, tm, atol=1e-13)

    def test_twisted_hermiticity(self, hot_gauge):
        """<a, M(mu) b> = <M(mu)^dag a, b> via g5 M(-mu) g5."""
        tm = TwistedMassDirac(hot_gauge, 0.1, mu=0.3)
        a = random_fermion(hot_gauge.lattice, rng=2)
        b = random_fermion(hot_gauge.lattice, rng=3)
        assert inner(a, tm.apply(b)) == pytest.approx(inner(tm.apply_dagger(a), b), rel=1e-10)

    def test_normal_operator_bounded_by_mu_squared(self, hot_gauge):
        """M^dag M = M_w^dag M_w + mu^2: the twist term's protective bound."""
        mu = 0.4
        tm = TwistedMassDirac(hot_gauge, 0.1, mu=mu)
        w = WilsonDirac(hot_gauge, 0.1)
        psi = random_fermion(hot_gauge.lattice, rng=4)
        lhs = tm.normal_op().apply(psi)
        rhs = w.normal_op().apply(psi) + mu**2 * psi
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_solvable_even_at_zero_wilson_mass(self):
        """mu != 0 keeps the system solvable where pure Wilson may be near-
        singular."""
        lat = Lattice4D((4, 4, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.4, rng=5)
        tm = TwistedMassDirac(gauge, mass=-0.5, mu=0.3)
        b = random_fermion(lat, rng=6)
        res = cg(tm.normal_op(), tm.apply_dagger(b), tol=1e-9, max_iter=20000)
        assert res.converged
        assert norm(tm.apply(res.x) - b) / norm(b) < 1e-7

    def test_astype(self, tiny_lattice):
        tm = TwistedMassDirac(GaugeField.hot(tiny_lattice, rng=7), 0.1, 0.2)
        psi = random_fermion(tiny_lattice, rng=8).astype(np.complex64)
        assert tm.astype(np.complex64).apply(psi).dtype == np.complex64

    def test_flops_exceed_wilson(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        assert (
            TwistedMassDirac(g, 0.1, 0.2).flops_per_apply
            > WilsonDirac(g, 0.1).flops_per_apply
        )


class TestRectangleStaples:
    @given(shapes, seeds)
    @settings(max_examples=10, deadline=None)
    def test_counting_identity(self, shape, seed):
        """The engine's rectangle staples ``W = U A_rect``:
        ``sum_x Re tr W_mu = sum_nu [4 sum Re tr R_{mu nu} + 2 sum Re tr R_{nu mu}]``
        with ``@`` rectangles — validates all six staple shapes."""
        u = GaugeField.hot(Lattice4D(shape), rng=seed).u
        w = LinkPlanes(u).rectangle_staples()
        for mu in range(4):
            lhs = float(np.sum(np.trace(w[mu, 0])))
            rhs = 0.0
            for nu in range(4):
                if nu == mu:
                    continue
                rect = _matmul_rectangle(u, mu, nu)
                assert np.abs(rectangle_field(u, mu, nu) - rect).max() <= 1e-14
                rhs += 4.0 * float(np.sum(su3.re_trace(rect)))
                rhs += 2.0 * float(np.sum(su3.re_trace(_matmul_rectangle(u, nu, mu))))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10), mu

    def test_cold_rectangle_staple(self, tiny_lattice):
        u = GaugeField.cold(tiny_lattice).u
        w = planes.from_planes(LinkPlanes(u).rectangle_staples(), tiny_lattice.shape)
        # 3 transverse directions x 6 shapes = 18 identity paths.
        assert np.allclose(w, 18.0 * su3.identity(w.shape[:-2]))


class TestImprovedAction:
    def test_presets(self):
        assert LUSCHER_WEISZ_C1 == pytest.approx(-1.0 / 12.0)
        assert IWASAKI_C1 == -0.331
        assert DBW2_C1 == -1.4088
        act = ImprovedGaugeAction(2.2, IWASAKI_C1)
        assert act.c0 == pytest.approx(1.0 - 8.0 * IWASAKI_C1)

    def test_zero_on_cold_field(self, tiny_lattice):
        act = ImprovedGaugeAction(6.0, LUSCHER_WEISZ_C1)
        assert act.action(GaugeField.cold(tiny_lattice)) == pytest.approx(0.0, abs=1e-8)

    def test_c1_zero_is_wilson_action(self, hot_gauge):
        imp = ImprovedGaugeAction(5.5, c1=0.0)
        wil = WilsonGaugeAction(5.5)
        assert imp.action(hot_gauge) == pytest.approx(wil.action(hot_gauge), rel=1e-12)
        assert np.allclose(imp.force(hot_gauge), wil.force(hot_gauge), atol=1e-12)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            ImprovedGaugeAction(0.0)

    @given(shapes, seeds)
    @settings(max_examples=8, deadline=None)
    def test_force_matches_numerical_gradient(self, shape, seed):
        """The decisive check of every rectangle staple orientation."""
        gauge = GaugeField.hot(Lattice4D(shape), rng=seed)
        act = ImprovedGaugeAction(2.2, IWASAKI_C1)
        f = act.force(gauge)
        lam = su3.gellmann_matrices()
        rng = np.random.default_rng(seed)
        for _ in range(3):
            mu, a = int(rng.integers(4)), int(rng.integers(8))
            site = tuple(int(rng.integers(n)) for n in shape)
            x = 0.5j * lam[a]
            eps = 1e-5
            up, dn = gauge.copy(), gauge.copy()
            up.u[(mu,) + site] = su3.expm_su3(eps * x) @ up.u[(mu,) + site]
            dn.u[(mu,) + site] = su3.expm_su3(-eps * x) @ dn.u[(mu,) + site]
            num = (act.action(up) - act.action(dn)) / (2 * eps)
            coeffs = su3.algebra_to_coeffs(f[(mu,) + site])
            assert coeffs[a] == pytest.approx(num, rel=1e-4, abs=1e-8), (mu, site, a)

    def test_hmc_with_iwasaki_conserves_and_reverses(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=11)
        act = ImprovedGaugeAction(2.2, IWASAKI_C1)
        pi = sample_momenta(gauge, rng=12)
        u0 = gauge.u.copy()
        h0 = kinetic_energy(pi) + act.action(gauge)
        leapfrog(gauge, pi, act, eps=0.02, n_steps=10)
        h1 = kinetic_energy(pi) + act.action(gauge)
        assert abs(h1 - h0) < 0.05
        pi *= -1.0
        leapfrog(gauge, pi, act, eps=0.02, n_steps=10)
        assert np.allclose(gauge.u, u0, atol=1e-10)

    def test_hmc_driver_accepts(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=13)
        hmc = HMC(ImprovedGaugeAction(2.2, IWASAKI_C1), step_size=0.02, n_steps=5, rng=14)
        results = [hmc.trajectory(gauge) for _ in range(4)]
        assert hmc.acceptance_rate > 0.5
        assert all(np.isfinite(r.delta_h) for r in results)
