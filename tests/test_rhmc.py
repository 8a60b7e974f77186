"""RHMC tests: rational-approximation accuracy, operator application,
force vs numerical gradient, and a conserving dynamical trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro import su3
from repro.dirac import EvenOddWilson, MatrixOperator, WilsonDirac
from repro.fields import GaugeField, norm, norm2, random_fermion
from repro.hmc import (
    HMC,
    OneFlavorWilsonAction,
    WilsonGaugeAction,
    estimate_spectral_bounds,
    fit_rational_power,
)
from repro.lattice import Lattice4D

RNG = np.random.default_rng(4242)


class TestRationalFit:
    def test_inverse_sqrt_accuracy(self):
        ra = fit_rational_power(-0.5, 1e-3, 10.0, n_poles=12)
        xs = np.geomspace(1e-3, 10.0, 1000)
        rel = np.abs(ra(xs) - xs**-0.5) / xs**-0.5
        assert np.max(rel) < 1e-4
        assert ra.max_rel_error < 1e-4

    def test_quarter_power_accuracy(self):
        ra = fit_rational_power(0.25, 1e-2, 50.0, n_poles=12)
        xs = np.geomspace(1e-2, 50.0, 500)
        rel = np.abs(ra(xs) - xs**0.25) / xs**0.25
        assert np.max(rel) < 1e-4

    def test_shifts_positive(self):
        ra = fit_rational_power(-0.5, 1e-2, 5.0, n_poles=8)
        assert np.all(ra.shifts > 0)

    def test_validates(self):
        with pytest.raises(ValueError):
            fit_rational_power(1.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            fit_rational_power(-0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            fit_rational_power(-0.5, 0.1, 1.0, n_poles=0)

    def test_apply_operator_matches_dense(self):
        """r(A) b via multishift CG equals the dense A^{-1/2} b."""
        n = 30
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        eigs = np.geomspace(0.05, 5.0, n)
        mat = (q * eigs) @ q.conj().T
        op = MatrixOperator(mat)
        ra = fit_rational_power(-0.5, 0.02, 10.0, n_poles=14)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        approx, results = ra.apply_operator(op, b, tol=1e-12)
        w, v = np.linalg.eigh(mat)
        exact = (v * (w**-0.5)) @ (v.conj().T @ b)
        assert norm(approx - exact) / norm(exact) < 1e-4
        assert all(r.converged for r in results)

    def test_composition_is_identity(self):
        """A^{1/4} A^{1/4} A^{-1/2} = 1 within fit error."""
        n = 20
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        eigs = np.geomspace(0.1, 3.0, n)
        op = MatrixOperator((q * eigs) @ q.conj().T)
        inv_sqrt = fit_rational_power(-0.5, 0.05, 6.0, n_poles=12)
        quarter = fit_rational_power(0.25, 0.05, 6.0, n_poles=12)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        y, _ = inv_sqrt.apply_operator(op, b, tol=1e-12)
        y, _ = quarter.apply_operator(op, y, tol=1e-12)
        y, _ = quarter.apply_operator(op, y, tol=1e-12)
        assert norm(y - b) / norm(b) < 1e-3


class TestSpectralBounds:
    def test_bounds_bracket_dense_spectrum(self):
        n = 25
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        eigs = np.geomspace(0.2, 4.0, n)
        op = MatrixOperator((q * eigs) @ q.conj().T)
        start = rng.normal(size=n) + 1j * rng.normal(size=n)
        lo, hi = estimate_spectral_bounds(op, start)
        assert lo <= 0.2 and hi >= 4.0
        assert lo > 0


class TestSchurSystem:
    """RHMC runs on the even-odd Schur normal operator, whose odd sites are a
    null space: everything starts on the even sites and stays there."""

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (4, 4, 4, 4)])
    def test_bounds_positive_from_even_start(self, shape):
        gauge = GaugeField.warm(Lattice4D(shape), eps=0.2, rng=14)
        eo = EvenOddWilson(gauge, 0.5)
        nop = eo.schur_operator().normal_op()
        start = random_fermion(gauge.lattice, rng=15)
        start[eo.odd] = 0
        lo, hi = estimate_spectral_bounds(nop, start)
        assert 0 < lo < hi
        if shape == (2, 2, 2, 2):  # the dense spectrum on the even sites
            even = np.flatnonzero(np.broadcast_to(eo.even[..., None, None], start.shape))
            cols = []
            for k in even:
                e = np.zeros(start.size, complex)
                e[k] = 1.0
                cols.append(nop(e.reshape(start.shape)).reshape(-1)[even])
            eigs = np.linalg.eigvalsh(np.array(cols).T)
            assert eigs[0] / 10 < lo <= eigs[0] and hi >= eigs[-1]

    def test_pseudofermion_on_even_sites(self):
        gauge = GaugeField.warm(Lattice4D((2, 2, 2, 2)), eps=0.2, rng=16)
        pf = OneFlavorWilsonAction(mass=0.5, n_poles=10)
        pf.refresh(gauge, rng=17)
        odd = EvenOddWilson(gauge, 0.5).odd
        assert not pf.phi[odd].any() and pf.phi[~odd].any()
        assert pf.rational_error < 1e-4


class TestOneFlavorAction:
    def _setup(self, mass=1.0, seed=9):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=seed)
        pf = OneFlavorWilsonAction(mass=mass, n_poles=10, solver_tol=1e-12)
        pf.refresh(gauge, rng=seed + 1)
        return gauge, pf

    def test_refresh_action_is_eta_norm(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=10)
        pf = OneFlavorWilsonAction(mass=1.0, n_poles=12, solver_tol=1e-12)
        rng = np.random.default_rng(11)
        rng_copy = np.random.default_rng(11)
        pf.refresh(gauge, rng=rng)
        # Reproduce eta: refresh consumed draws for bounds estimation first.
        # Instead verify S ~ |eta|^2 statistically: S must be positive and
        # of the size of the field dof count.
        s = pf.action(gauge)
        dof = gauge.lattice.volume // 2 * 12  # eta lives on the even sites
        assert s > 0
        assert s == pytest.approx(dof, rel=0.5)  # chi^2_{2 dof}/2 mean = dof

    def test_requires_refresh(self):
        gauge = GaugeField.cold(Lattice4D((2, 2, 2, 2)))
        pf = OneFlavorWilsonAction(mass=1.0, spectral_bounds=(0.5, 50.0))
        with pytest.raises(RuntimeError):
            pf.action(gauge)
        with pytest.raises(RuntimeError):
            pf.force(gauge)

    def test_rational_error_exposed(self):
        _, pf = self._setup()
        assert pf.rational_error < 1e-4

    def test_force_in_algebra(self):
        gauge, pf = self._setup()
        f = pf.force(gauge)
        assert np.allclose(su3.project_algebra(f), f, atol=1e-12)

    def test_force_matches_numerical_gradient(self):
        """The RHMC force against central differences of the rational
        action — validates the whole pole-sum force construction."""
        gauge, pf = self._setup()
        f = pf.force(gauge)
        lam = su3.gellmann_matrices()
        for mu, site, a in [(0, (0, 0, 0, 0), 2), (3, (1, 1, 1, 0), 5)]:
            x = 0.5j * lam[a]
            eps = 1e-4
            up, dn = gauge.copy(), gauge.copy()
            up.u[(mu,) + site] = su3.expm_su3(eps * x) @ up.u[(mu,) + site]
            dn.u[(mu,) + site] = su3.expm_su3(-eps * x) @ dn.u[(mu,) + site]
            num = (pf.action(up) - pf.action(dn)) / (2 * eps)
            coeffs = su3.algebra_to_coeffs(f[(mu,) + site])
            assert coeffs[a] == pytest.approx(num, rel=2e-3, abs=1e-6), (mu, site, a)

    def test_rhmc_trajectory_conserves(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=12)
        hmc = HMC(
            [WilsonGaugeAction(beta=5.5),
             OneFlavorWilsonAction(mass=1.0, n_poles=10, solver_tol=1e-11)],
            step_size=0.02,
            n_steps=5,
            rng=13,
        )
        r = hmc.trajectory(gauge)
        assert abs(r.delta_h) < 0.5
