"""HMC tests: forces vs numerical gradients, reversibility, dH scaling,
exactness, and heatbath physics (strong-coupling plaquette)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3
from repro.dirac import EvenOddWilson, WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.hmc import (
    HMC,
    TwoFlavorWilsonAction,
    WilsonGaugeAction,
    heatbath_sweep,
    kinetic_energy,
    leapfrog,
    omelyan,
    overrelaxation_sweep,
    sample_momenta,
    su2_heatbath_pauli,
)
from repro.lattice import Lattice4D, checkerboard_masks, mask_field
from repro.loops import average_plaquette

RNG = np.random.default_rng(9001)


def _even_field(eo: EvenOddWilson, column: np.ndarray) -> np.ndarray:
    """The field whose even sites are the even-site column ``column``, zero on the odd ones."""
    out = np.empty((1,) + eo.lattice.shape + (4, 3), complex)
    return eo._kernel.store_parity_planes(out, (column, None))[0]


def _numerical_action_gradient(action, gauge, mu, site, a, eps=1e-5):
    """Central difference of S under U -> exp(theta i T_a) U at one link."""
    lam = su3.gellmann_matrices()[a]
    x = 0.5j * lam  # i T_a
    up = gauge.copy()
    dn = gauge.copy()
    up.u[(mu,) + site] = su3.expm_su3(eps * x) @ up.u[(mu,) + site]
    dn.u[(mu,) + site] = su3.expm_su3(-eps * x) @ dn.u[(mu,) + site]
    return (action.action(up) - action.action(dn)) / (2 * eps)


class TestMomenta:
    def test_momenta_in_algebra(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        pi = sample_momenta(g, rng=1)
        assert pi.shape == (4,) + tiny_lattice.shape + (3, 3)
        assert np.allclose(su3.project_algebra(pi), pi, atol=1e-13)

    def test_momenta_are_stored_colour_major(self, small_lattice):
        """The momenta hold ``random_algebra``'s values with the colour axes
        outermost in memory, the order ``kinetic_energy`` sums them in, which
        the pinned ledgers' energy differences were journaled with."""
        g = GaugeField.cold(small_lattice)
        pi = sample_momenta(g, rng=3)
        want = su3.random_algebra((4,) + small_lattice.shape, rng=3, scale=1.0)
        assert pi.tobytes() == want.tobytes()
        assert np.moveaxis(pi, (-2, -1), (0, 1)).flags.c_contiguous

    def test_kinetic_energy_expectation(self):
        """<K> = 4 per link (8 Gaussian coefficients, K = sum c^2 / 2)."""
        lat = Lattice4D((4, 4, 4, 4))
        g = GaugeField.cold(lat)
        pi = sample_momenta(g, rng=2)
        n_links = 4 * lat.volume
        assert kinetic_energy(pi) / n_links == pytest.approx(4.0, rel=0.1)


class TestGaugeForce:
    def test_force_in_algebra(self, tiny_lattice):
        g = GaugeField.hot(tiny_lattice, rng=3)
        f = WilsonGaugeAction(beta=5.5).force(g)
        assert np.allclose(su3.project_algebra(f), f, atol=1e-12)

    def test_force_matches_numerical_gradient(self):
        """The decisive sign/normalisation check: F coefficients equal
        dS/dtheta_a by central differences, at several links/generators."""
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=4)
        action = WilsonGaugeAction(beta=5.5)
        f = action.force(gauge)
        for mu, site, a in [
            (0, (0, 0, 0, 0), 0),
            (1, (1, 0, 1, 0), 3),
            (3, (0, 1, 1, 1), 7),
            (2, (1, 1, 0, 0), 5),
        ]:
            coeffs = su3.algebra_to_coeffs(f[(mu,) + site])
            num = _numerical_action_gradient(action, gauge, mu, site, a)
            assert coeffs[a] == pytest.approx(num, rel=1e-5, abs=1e-8), (mu, site, a)

    def test_cold_force_vanishes(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        assert np.allclose(WilsonGaugeAction(beta=6.0).force(g), 0.0, atol=1e-13)

    def test_action_positive_and_zero_when_cold(self, tiny_lattice):
        act = WilsonGaugeAction(beta=6.0)
        assert act.action(GaugeField.cold(tiny_lattice)) == pytest.approx(0.0, abs=1e-9)
        assert act.action(GaugeField.hot(tiny_lattice, rng=5)) > 0.0

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            WilsonGaugeAction(beta=0.0)


class TestIntegrators:
    def _setup(self, seed=6):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=seed)
        action = WilsonGaugeAction(beta=5.5)
        pi = sample_momenta(gauge, rng=seed + 1)
        return gauge, pi, action

    def test_leapfrog_reversibility(self):
        gauge, pi, action = self._setup()
        u0 = gauge.u.copy()
        leapfrog(gauge, pi, action, eps=0.05, n_steps=10)
        pi *= -1.0
        leapfrog(gauge, pi, action, eps=0.05, n_steps=10)
        assert np.allclose(gauge.u, u0, atol=1e-10)

    def test_omelyan_reversibility(self):
        gauge, pi, action = self._setup(seed=8)
        u0 = gauge.u.copy()
        omelyan(gauge, pi, action, eps=0.05, n_steps=10)
        pi *= -1.0
        omelyan(gauge, pi, action, eps=0.05, n_steps=10)
        assert np.allclose(gauge.u, u0, atol=1e-10)

    def _dh(self, integrator, eps, n_steps, seed=10):
        gauge, pi, action = self._setup(seed=seed)
        h0 = kinetic_energy(pi) + action.action(gauge)
        integrator(gauge, pi, action, eps, n_steps)
        return abs(kinetic_energy(pi) + action.action(gauge) - h0)

    def test_leapfrog_dh_second_order(self):
        """Fixed trajectory length: dH ~ eps^2, so halving eps gives ~4x."""
        dh1 = self._dh(leapfrog, 0.08, 10)
        dh2 = self._dh(leapfrog, 0.04, 20)
        ratio = dh1 / dh2
        assert 2.5 < ratio < 6.5, ratio

    def test_omelyan_beats_leapfrog_at_equal_eps(self):
        assert self._dh(omelyan, 0.08, 10) < self._dh(leapfrog, 0.08, 10)

    def test_links_stay_on_group(self):
        gauge, pi, action = self._setup(seed=12)
        leapfrog(gauge, pi, action, eps=0.1, n_steps=20)
        assert gauge.unitarity_violation() < 1e-10

    def test_step_validation(self):
        gauge, pi, action = self._setup(seed=13)
        with pytest.raises(ValueError):
            leapfrog(gauge, pi, action, 0.1, 0)
        with pytest.raises(ValueError):
            omelyan(gauge, pi, action, 0.1, 0)


class TestHMCDriver:
    def test_high_acceptance_small_step(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=14)
        hmc = HMC(WilsonGaugeAction(beta=5.5), step_size=0.02, n_steps=10, rng=15)
        results = hmc.run(gauge, 10)
        assert hmc.acceptance_rate >= 0.8
        assert all(abs(r.delta_h) < 1.0 for r in results)

    def test_rejection_restores_configuration(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=16)
        # Grossly too-large step: essentially always rejected.
        hmc = HMC(WilsonGaugeAction(beta=5.5), step_size=2.0, n_steps=10, rng=17)
        u0 = gauge.u.copy()
        r = hmc.trajectory(gauge)
        if not r.accepted:
            assert np.array_equal(gauge.u, u0)

    def test_thermalises_from_cold(self):
        """At beta = 5.5 the equilibrium plaquette is well below 1; HMC from
        a cold start must move towards it."""
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.cold(lat)
        hmc = HMC(WilsonGaugeAction(beta=5.5), step_size=0.08, n_steps=8, rng=18)
        hmc.run(gauge, 20)
        assert average_plaquette(gauge.u) < 0.99

    def test_invalid_integrator(self):
        with pytest.raises(ValueError):
            HMC(WilsonGaugeAction(5.5), integrator="rk4")

    def test_omelyan_integrator_runs(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=19)
        hmc = HMC(WilsonGaugeAction(5.5), step_size=0.05, n_steps=5,
                  integrator="omelyan", rng=20)
        r = hmc.trajectory(gauge)
        assert np.isfinite(r.delta_h)
        assert 0.0 <= r.plaquette <= 1.0


class TestPlaquetteMemo:
    """The plaquette of one link state is computed once per trajectory and
    served to the energies, the reported plaquette and the checkpoint."""

    def test_memo_does_not_change_a_bit(self, tmp_path, monkeypatch):
        """A quenched campaign (checkpoints and reunitarisation on the
        way) against one whose memo forgets before every call: same ledger
        bytes, checkpoint plaquettes and final links, in fewer plaquettes."""
        import repro.hmc.action as action_module
        from repro.campaign import CampaignConfig, HMCCampaign
        from repro.loops import PlaquetteMemo

        computed = []

        class Counting(PlaquetteMemo):
            def __call__(self, u):
                key = self._key
                value = super().__call__(u)
                computed[-1] += self._key is not key
                return value

        class Forgetful(Counting):
            def __call__(self, u):
                self._key = None
                return super().__call__(u)

        cfg = CampaignConfig(
            shape=(2, 2, 2, 4), beta=5.5, n_trajectories=6, n_steps=3,
            checkpoint_interval=2, reunit_interval=3, seed=7,
        )
        runs = []
        for memo in (Counting, Forgetful):
            monkeypatch.setattr(action_module, "PlaquetteMemo", memo)
            computed.append(0)
            camp = HMCCampaign(tmp_path / memo.__name__, cfg)
            summary = camp.run()
            records = camp.ledger.records()
            metas = [camp.store.load(step)[1]["plaquette"] for step in camp.store.steps()]
            runs.append(((tmp_path / memo.__name__ / "ledger.jsonl").read_bytes(),
                         metas, summary.final_plaquette,
                         camp.store.load(camp.store.steps()[-1])[0]["u"].tobytes()))
        assert runs[0] == runs[1]
        assert len(records) == 6 and computed[0] < computed[1]

    def test_in_place_edit_forces_a_recompute(self):
        from repro.loops import PlaquetteMemo

        gauge = GaugeField.hot(Lattice4D((2, 2, 2, 2)), rng=21)
        memo = PlaquetteMemo()
        p0 = memo(gauge.u)
        assert memo(gauge.u.copy()) == p0  # equal content, another array
        link = (2, 1, 0, 1, 0)
        gauge.u[link] = su3.expm_su3(0.1j * su3.gellmann_matrices()[4]) @ gauge.u[link]
        p1 = memo(gauge.u)  # same array object, edited in place
        assert p1 != p0 and p1 == average_plaquette(gauge.u)
        action = WilsonGaugeAction(5.5)
        hmc = HMC(action, rng=1)
        assert hmc.plaquette(gauge) == p1 and hmc._plaquette is action.plaquette


class TestPseudofermion:
    def _setup(self, mass=1.0, seed=21):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=seed)
        pf = TwoFlavorWilsonAction(mass=mass, solver_tol=1e-12, force_tol=1e-12)
        pf.refresh(gauge, rng=seed + 1)
        return gauge, pf

    def test_refresh_action_equals_eta_norm(self):
        """At refresh, S_pf = |eta_e|^2 (the even-site part of the draw):
        the refreshed action's value, and through the solve an action
        pinned to the same phi."""
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=22)
        pf = TwoFlavorWilsonAction(mass=1.0, solver_tol=1e-13)
        rng = np.random.default_rng(23)
        # Reproduce the internal draw to know eta.
        rng_copy = np.random.default_rng(23)
        eta = random_fermion(gauge.lattice, rng=rng_copy)
        pf.refresh(gauge, rng=rng)
        from repro.fields import norm2

        eta_e = mask_field(eta, checkerboard_masks(lat)[0])
        solved = TwoFlavorWilsonAction(mass=1.0, solver_tol=1e-13)
        solved.set_phi(pf.phi)
        assert pf.action(gauge) == pytest.approx(norm2(eta_e), rel=1e-14)
        assert solved.action(gauge) == pytest.approx(norm2(eta_e), rel=1e-8)

    @pytest.mark.parametrize("force_tol", [1e-7, 1e-10])
    def test_initial_energy_needs_no_solve(self, monkeypatch, force_tol):
        """On the links and phi of its refresh the action is |eta_e|^2 with no
        solve, and equals the solve-based action to 1e-10 at 4^4; on other
        links, or after ``set_phi``, it solves again."""
        from repro.hmc import pseudofermion

        calls, cg = [], pseudofermion.cg
        monkeypatch.setattr(pseudofermion, "cg", lambda *a, **k: calls.append(1) or cg(*a, **k))
        gauge = GaugeField.warm(Lattice4D((4, 4, 4, 4)), eps=0.25, rng=51)
        pf = TwoFlavorWilsonAction(0.5, force_tol=force_tol)
        pf.refresh(gauge, rng=52)
        s0 = pf.action(gauge)
        assert pf.action(gauge.copy()) == s0 and calls == []  # keyed by content
        solved = TwoFlavorWilsonAction(0.5, force_tol=force_tol)
        solved.set_phi(pf.phi)
        assert abs(solved.action(gauge) - s0) <= 1e-10 * s0
        assert len(calls) == (2 if force_tol > solved.solver_tol else 1)
        pf.set_phi(pf.phi)
        assert pf.action(gauge) == solved.action(gauge)

    def test_force_matches_numerical_gradient(self):
        """Validates the whole C1/C2 outer-product construction."""
        gauge, pf = self._setup()
        f = pf.force(gauge)
        for mu, site, a in [(0, (0, 0, 0, 0), 1), (2, (1, 1, 0, 1), 6)]:
            coeffs = su3.algebra_to_coeffs(f[(mu,) + site])
            num = _numerical_action_gradient(pf, gauge, mu, site, a, eps=1e-4)
            assert coeffs[a] == pytest.approx(num, rel=1e-3, abs=1e-7), (mu, site, a)

    def test_force_in_algebra(self):
        gauge, pf = self._setup()
        f = pf.force(gauge)
        assert np.allclose(su3.project_algebra(f), f, atol=1e-12)

    def test_requires_refresh(self):
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.cold(lat)
        pf = TwoFlavorWilsonAction(mass=1.0)
        with pytest.raises(RuntimeError):
            pf.action(gauge)

    def test_dynamical_hmc_trajectory_conserves(self):
        """Gauge + 2-flavour action: dH stays small at modest step size."""
        lat = Lattice4D((2, 2, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.2, rng=24)
        hmc = HMC(
            [WilsonGaugeAction(beta=5.5), TwoFlavorWilsonAction(mass=1.0, solver_tol=1e-11)],
            step_size=0.02,
            n_steps=5,
            rng=25,
        )
        r = hmc.trajectory(gauge)
        assert abs(r.delta_h) < 0.5


    # -- one solve per distinct (links, phi) ----------------------------------

    @staticmethod
    def _dynamical(term, step_size, seed=27):
        gauge = GaugeField.warm(Lattice4D((2, 2, 2, 2)), eps=0.2, rng=seed)
        hmc = HMC([WilsonGaugeAction(beta=5.5), term], step_size=step_size, n_steps=8,
                  integrator="omelyan", rng=seed + 1)
        return gauge, hmc

    @pytest.mark.parametrize("step_size,accepted", [(0.02, True), (0.6, False)])
    def test_trajectory_solves_each_system_once(self, monkeypatch, step_size, accepted):
        """An Omelyan-8 trajectory evaluates 17 forces and 2 energies on 17
        distinct links: 17 zero-guess force-grade solves, accepted or not.
        The initial energy is the heatbath's |eta_e|^2, and the final energy
        continues the last kick's solution — 1 more call with a guess —
        unless the two tolerances are equal, when it reads the last kick's
        solution.  No solution that started from a guess ever reaches a kick."""
        from repro.hmc import pseudofermion

        calls, cg = [], pseudofermion.cg

        def spy(op, b, x0=None, **kwargs):
            res = cg(op, b, x0=x0, **kwargs)
            calls.append((x0, res.x))
            return res

        monkeypatch.setattr(pseudofermion, "cg", spy)
        for force_tol in (1e-7, 1e-10):
            term = TwoFlavorWilsonAction(mass=1.0, force_tol=force_tol)
            solve_x = term._solve_x

            def checked(gauge, grade):
                x, eo = solve_x(gauge, grade)
                if grade == "force":
                    assert not any(x is y for x0, y in calls if x0 is not None)
                return x, eo

            term._solve_x = checked
            gauge, hmc = self._dynamical(term, step_size)
            for _ in range(2):
                del calls[:]
                assert hmc.trajectory(gauge).accepted is accepted
                guesses = [x0 for x0, _ in calls]
                if force_tol > term.solver_tol:
                    # 17 kicks, final energy
                    assert [g is None for g in guesses] == 17 * [True] + [False]
                    assert guesses[17] is calls[16][1]
                else:
                    assert guesses == 17 * [None]

    def test_memo_does_not_change_a_bit(self):
        """Against an action that forgets before every call: same dH, same
        acceptance, same reported action, same final links."""

        class Forgetful(TwoFlavorWilsonAction):
            solves = 0

            def _solve_x(self, gauge, caller):
                self._solved.clear()
                self.solves += 1
                return super()._solve_x(gauge, caller)

        results = []
        for term in (TwoFlavorWilsonAction(mass=1.0), Forgetful(mass=1.0)):
            gauge, hmc = self._dynamical(term, 0.05)
            results.append(([hmc.trajectory(gauge) for _ in range(2)], gauge.u))
        # 17 kicks + the final energy, which asks for its force-grade seed.
        assert term.solves == 2 * 19
        (kept, u_kept), (forgot, u_forgot) = results
        assert kept == forgot
        assert np.array_equal(u_kept, u_forgot)

    def test_memo_is_keyed_by_link_content(self):
        gauge, pf = self._setup()
        s0 = pf.action(gauge)
        saved = gauge.u[1, 0, 1, 0, 1].copy()
        gauge.u[1, 0, 1, 0, 1] = su3.expm_su3(0.05j * su3.gellmann_matrices()[2]) @ saved
        s1 = pf.action(gauge)  # same array object, edited in place
        assert s1 != s0
        fresh = TwoFlavorWilsonAction(
            mass=pf.mass, solver_tol=pf.solver_tol, force_tol=pf.force_tol
        )
        fresh.set_phi(pf.phi)
        assert s1 == fresh.action(gauge)
        gauge.u[1, 0, 1, 0, 1] = saved
        assert pf.action(gauge.copy()) == s0  # equal content, another array
        pf.set_phi(2.0 * pf.phi)
        assert pf.action(gauge) == pytest.approx(4.0 * s0, rel=1e-9)


class TestEvenOddPseudofermion:
    """The physics gates of the even-odd two-flavour action: it is the
    default of every dynamical trajectory, so what it samples and how it is
    integrated are pinned here rather than by a bit pattern."""

    PHASES = {
        "antiperiodic-t": (-1.0, 1.0, 1.0, 1.0),
        "periodic": (1.0, 1.0, 1.0, 1.0),
        "twisted": (np.exp(0.3j), 1.0, 1.0, -1.0),  # not +-1: the masked Schur path
    }

    @given(
        st.sampled_from([(2, 2, 4, 2), (2, 4, 2, 2), (4, 2, 2, 2), (2, 2, 2, 4)]),
        st.sampled_from(sorted(PHASES)),
        st.integers(0, 10**6),
    )
    @settings(max_examples=12, deadline=None)
    def test_force_is_the_gradient_of_the_action(self, shape, boundary, seed):
        rng = np.random.default_rng(seed)
        gauge = GaugeField.hot(Lattice4D(shape), rng=rng)
        pf = TwoFlavorWilsonAction(
            0.5, phases=self.PHASES[boundary], solver_tol=1e-12, force_tol=1e-12
        )
        pf.refresh(gauge, rng=rng)
        f = pf.force(gauge)
        assert np.allclose(su3.project_algebra(f), f, atol=1e-12)
        for _ in range(2):
            mu, a = int(rng.integers(4)), int(rng.integers(8))
            site = tuple(int(rng.integers(n)) for n in shape)
            coeff = su3.algebra_to_coeffs(f[(mu,) + site])[a]
            num = _numerical_action_gradient(pf, gauge, mu, site, a, eps=1e-4)
            assert coeff == pytest.approx(num, rel=1e-6, abs=1e-8), (mu, site, a)

    @pytest.mark.parametrize("mass", [0.1, 0.5])
    def test_determinant_factorises(self, mass):
        """``det M = d^(12 V/2) det M_hat`` from dense matrices at 2^4: the
        action drops a constant, not a function of the links."""
        lat = Lattice4D((2, 2, 2, 2))
        even = np.repeat(checkerboard_masks(lat)[0].ravel(), 12)
        basis = np.eye(12 * lat.volume, dtype=complex).reshape((-1,) + lat.shape + (4, 3))
        for seed in (31, 32, 33):
            gauge = GaugeField.hot(lat, rng=seed)
            m_hat = EvenOddWilson(gauge, mass).schur_operator()
            dense = [
                np.array([op.apply(e).ravel() for e in basis]).T
                for op in (WilsonDirac(gauge, mass), m_hat)
            ]
            assert not dense[1][~even].any() and not dense[1][:, ~even].any()
            (s_full, log_full), (s_hat, log_hat) = (
                np.linalg.slogdet(dense[0]),
                np.linalg.slogdet(dense[1][np.ix_(even, even)]),
            )
            assert log_full - log_hat == pytest.approx(96 * np.log(mass + 4.0), abs=1e-11)
            assert s_full == pytest.approx(s_hat, abs=1e-11)

    @pytest.mark.parametrize("boundary", sorted(PHASES))
    def test_force_fields_are_the_back_substitution(self, monkeypatch, boundary):
        """``M X_f = (Y, 0)`` and ``M^dag Y_f = (phi, 0)``: the odd sites handed
        to the bilinear are fixed by an identity, signs included."""
        from repro.hmc import pseudofermion

        seen = []
        bilinear = pseudofermion.wilson_bilinear_force
        monkeypatch.setattr(
            pseudofermion, "wilson_bilinear_force",
            lambda gauge, x, y, phases: seen.append((x, y)) or bilinear(gauge, x, y, phases),
        )
        lat = Lattice4D((2, 4, 2, 2))
        gauge = GaugeField.hot(lat, rng=34)
        pf = TwoFlavorWilsonAction(
            0.3, phases=self.PHASES[boundary], solver_tol=1e-13, force_tol=1e-13
        )
        pf.refresh(gauge, rng=35)
        pf.force(gauge)
        (x_full, y_full), = seen
        even = checkerboard_masks(lat)[0]
        m = WilsonDirac(gauge, pf.mass, pf.phases)
        assert np.allclose(m.apply(x_full), mask_field(y_full, even), atol=1e-12)
        phi = _even_field(EvenOddWilson(gauge, pf.mass, pf.phases), pf.phi)
        assert np.allclose(m.apply_dagger(y_full), phi, atol=1e-10)

    def test_gauge_plus_fermion_trajectory_is_reversible(self):
        gauge = GaugeField.hot(Lattice4D((2, 2, 4, 2)), rng=36)
        pf = TwoFlavorWilsonAction(0.5)
        hmc = HMC([WilsonGaugeAction(5.6), pf])  # for its composite action
        pf.refresh(gauge, rng=37)
        pi = sample_momenta(gauge, rng=38)
        u0 = gauge.u.copy()
        omelyan(gauge, pi, hmc._action, eps=0.0625, n_steps=8)
        assert np.abs(gauge.u - u0).max() > 0.1
        pi *= -1.0
        omelyan(gauge, pi, hmc._action, eps=0.0625, n_steps=8)
        assert np.abs(gauge.u - u0).max() < 1e-11

    def test_exp_minus_dh_averages_to_one(self):
        """Creutz: ``<exp(-dH)> = 1`` when the force is the action's and the
        heatbath samples its weight; 40 trajectories after 3 to settle."""
        gauge = GaugeField.warm(Lattice4D((2, 2, 2, 2)), eps=0.4, rng=39)
        hmc = HMC(
            [WilsonGaugeAction(5.6), TwoFlavorWilsonAction(0.5)],
            step_size=0.125, n_steps=4, integrator="omelyan", rng=40,
        )
        hmc.run(gauge, 3)
        weights = np.exp([-r.delta_h for r in hmc.run(gauge, 40)])
        sigma = weights.std(ddof=1) / np.sqrt(len(weights))
        assert 1e-4 < sigma < 0.05  # the step is coarse enough to test something
        assert abs(weights.mean() - 1.0) < 3.0 * sigma
        assert hmc.acceptance_rate > 0.8

    # -- two grades of the one solve: kicks at force_tol, energies at solver_tol --

    def test_force_and_action_are_functions_of_links_and_phi(self):
        """Whatever was asked before: the kick is the zero-guess solve on its
        links and the energy that solve continued, so both equal a fresh
        instance's, bit for bit, at the default tolerances."""
        g = GaugeField.hot(Lattice4D((2, 2, 4, 2)), rng=42)
        other = GaugeField.hot(g.lattice, rng=43)
        pf = TwoFlavorWilsonAction(0.5)
        pf.refresh(other, rng=44)  # on g, the energy is a solve's

        def fresh():
            term = TwoFlavorWilsonAction(0.5)
            term.set_phi(pf.phi)
            return term

        force, action = fresh().force(g), fresh().action(g)
        assert np.array_equal(pf.force(g), force)  # first thing asked
        assert pf.action(g) == action  # after a kick on the same links
        assert np.array_equal(pf.force(g), force)  # after an energy on the same links
        pf.force(other)
        assert np.array_equal(pf.force(g), force)  # after a kick elsewhere
        pf.action(other)
        assert pf.action(g) == action and np.array_equal(pf.force(g), force)

    def test_equal_tolerances_are_the_single_grade_trajectory(self):
        """``force_tol = solver_tol`` against the action as it was with one
        tolerance (its ``_solve_x`` kept here): same dH, acceptance, reported
        action and links over a two-trajectory stream."""
        from repro.hmc import pseudofermion

        class SingleGrade(TwoFlavorWilsonAction):
            def _solve_x(self, gauge, caller):
                eo = EvenOddWilson(gauge, self.mass, self.phases)
                for links, phi, x in self._solved.values():
                    if phi is self.phi and np.array_equal(links, gauge.u):
                        return x, eo
                res = pseudofermion.cg(eo.schur_operator().normal_op(), self.phi,
                                       tol=self.solver_tol, max_iter=self.max_iter,
                                       record_history=False)
                assert res.converged
                self._solved[caller] = (gauge.u.copy(), self.phi, res.x)
                return res.x, eo

        streams = []
        for term in (TwoFlavorWilsonAction(0.5, force_tol=1e-10), SingleGrade(0.5)):
            gauge = GaugeField.hot(Lattice4D((2, 2, 4, 2)), rng=45)
            hmc = HMC([WilsonGaugeAction(5.6), term], step_size=0.0625, n_steps=8,
                      integrator="omelyan", rng=46)
            streams.append((hmc.run(gauge, 2), gauge.u))
        (new, u_new), (old, u_old) = streams
        assert new == old
        assert np.array_equal(u_new, u_old)

    def test_schur_normal_on_planes_is_the_wrapper_trajectory(self, monkeypatch):
        """The pseudofermion solves on ``normal_op()`` (even-site columns from
        M_hat to M_hat^dag) against ``NormalOperator`` of the Schur operator's
        full-lattice forms (each column stored to the lattice, the result
        gathered back): a two-trajectory stream at 4^4 gives the same dH,
        acceptance and link bytes."""
        from repro.dirac.eo import SchurOperator
        from repro.dirac.operator import NormalOperator

        class Wrapper(NormalOperator):
            def apply_into(self, x, out):
                eo = self.inner.eo
                full = NormalOperator(self.inner).apply(_even_field(eo, x))
                np.copyto(out, eo.even_planes(full))
                return out

        streams = []
        for wrapped in (False, True):
            if wrapped:
                monkeypatch.setattr(SchurOperator, "normal_op", lambda self: Wrapper(self))
            gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=49)
            hmc = HMC([WilsonGaugeAction(5.6), TwoFlavorWilsonAction(0.5)], step_size=0.0625,
                      n_steps=8, integrator="omelyan", rng=50)
            streams.append((hmc.run(gauge, 2), gauge.u.tobytes()))
        (planes, u_planes), (wrapper, u_wrapper) = streams
        assert planes == wrapper
        assert u_planes == u_wrapper

    def test_force_tol_barely_moves_delta_h(self):
        """One Omelyan-8 trajectory from the same state with kicks solved to
        1e-7 and to 1e-10: dH agrees to < 1e-5, far below its own size."""
        dh = []
        for force_tol in (1e-7, 1e-10):
            gauge = GaugeField.hot(Lattice4D((2, 2, 4, 2)), rng=47)
            hmc = HMC([WilsonGaugeAction(5.6), TwoFlavorWilsonAction(0.5, force_tol=force_tol)],
                      step_size=0.0625, n_steps=8, integrator="omelyan", rng=48)
            dh.append(hmc.trajectory(gauge).delta_h)
        assert 1e-4 < abs(dh[0]) < 1.0
        assert abs(dh[0] - dh[1]) < 1e-5

    @pytest.mark.parametrize("force_tol", [0.0, -1e-7])
    def test_force_tol_must_be_positive(self, force_tol):
        with pytest.raises(ValueError, match="force_tol"):
            TwoFlavorWilsonAction(0.5, force_tol=force_tol)

    def test_odd_extent_is_refused(self):
        gauge = GaugeField.cold(Lattice4D((3, 2, 2, 2)))
        with pytest.raises(ValueError, match=r"\(3, 2, 2, 2\)"):
            TwoFlavorWilsonAction(mass=1.0).refresh(gauge, rng=41)


class TestHeatbath:
    def test_su2_heatbath_distribution_mean(self):
        """For weight ~ sqrt(1-w0^2) e^{a w0}, <w0> is known via Bessel
        functions; at a = 4: <w0> = I_2(4)/I_1(4)."""
        from scipy.special import iv

        a = 4.0
        draws = su2_heatbath_pauli(np.full(20000, a), np.random.default_rng(26))
        w0 = draws[..., 0]
        expected = iv(2, a) / iv(1, a)
        assert np.mean(w0) == pytest.approx(expected, abs=0.02)
        # Unit quaternions.
        assert np.allclose(np.linalg.norm(draws, axis=-1), 1.0, atol=1e-12)

    def test_heatbath_preserves_group(self):
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=27)
        heatbath_sweep(gauge, beta=5.5, rng=28)
        assert gauge.unitarity_violation() < 1e-9

    def test_strong_coupling_plaquette(self):
        """<(1/3) Re tr P> = beta/18 + O(beta^3) at strong coupling."""
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=29)
        beta = 1.0
        rng = np.random.default_rng(30)
        for _ in range(20):
            heatbath_sweep(gauge, beta, rng)
        plaqs = []
        for _ in range(30):
            heatbath_sweep(gauge, beta, rng)
            plaqs.append(average_plaquette(gauge.u))
        assert np.mean(plaqs) == pytest.approx(beta / 18.0, abs=0.012)

    def test_overrelaxation_preserves_action(self):
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=31)
        for _ in range(5):
            heatbath_sweep(gauge, beta=2.0, rng=32)
        s_before = WilsonGaugeAction(2.0).action(gauge)
        overrelaxation_sweep(gauge, beta=2.0, rng=33)
        s_after = WilsonGaugeAction(2.0).action(gauge)
        assert s_after == pytest.approx(s_before, rel=1e-10)
        assert gauge.unitarity_violation() < 1e-9

    def test_overrelaxation_moves_links(self):
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=34)
        u0 = gauge.u.copy()
        overrelaxation_sweep(gauge, beta=2.0, rng=35)
        assert not np.allclose(gauge.u, u0)
