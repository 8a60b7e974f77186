"""Dirac operator tests: algebraic identities, free-field physics, and the
equivalence of all kernel variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import RankGrid, VirtualComm
from repro.dirac import (
    CloverDirac,
    DecomposedWilsonDirac,
    DomainWallDirac,
    EvenOddWilson,
    MatrixOperator,
    NormalOperator,
    PERIODIC_PHASES,
    WilsonDirac,
    clover_field_strength,
    hopping_term,
    hopping_term_naive,
)
from repro.fields import GaugeField, inner, norm, norm2, random_fermion, zero_fermion
from repro.gammas import GAMMAS, apply_gamma5
from repro.lattice import Lattice4D, checkerboard_masks, mask_field

RNG = np.random.default_rng(808)


class TestHoppingKernels:
    def test_spin_projected_matches_naive(self, hot_gauge):
        """The production half-spinor kernel is exactly the naive stencil."""
        psi = random_fermion(hot_gauge.lattice, rng=1)
        fast = hopping_term(hot_gauge.u, psi)
        ref = hopping_term_naive(hot_gauge.u, psi)
        assert np.allclose(fast, ref, atol=1e-12)

    def test_kernels_agree_periodic(self, hot_gauge):
        psi = random_fermion(hot_gauge.lattice, rng=2)
        fast = hopping_term(hot_gauge.u, psi, PERIODIC_PHASES)
        ref = hopping_term_naive(hot_gauge.u, psi, PERIODIC_PHASES)
        assert np.allclose(fast, ref, atol=1e-12)

    def test_linearity(self, hot_gauge):
        a = random_fermion(hot_gauge.lattice, rng=3)
        b = random_fermion(hot_gauge.lattice, rng=4)
        lhs = hopping_term(hot_gauge.u, 2.0 * a + 1j * b)
        rhs = 2.0 * hopping_term(hot_gauge.u, a) + 1j * hopping_term(hot_gauge.u, b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_site_axis_offset_5d(self, tiny_lattice):
        """A 5-D stack of identical 4-D fields hops slice-by-slice."""
        gauge = GaugeField.hot(tiny_lattice, rng=5)
        psi = random_fermion(tiny_lattice, rng=6)
        stack = np.stack([psi, 2.0 * psi])
        out = hopping_term(gauge.u, stack, site_axis_start=1)
        single = hopping_term(gauge.u, psi)
        assert np.allclose(out[0], single, atol=1e-12)
        assert np.allclose(out[1], 2.0 * single, atol=1e-12)


class TestWilsonDirac:
    def test_gamma5_hermiticity(self, hot_gauge):
        """<u, M v> == <gamma5 M gamma5 u, v> for random u, v."""
        m = WilsonDirac(hot_gauge, mass=0.3)
        u = random_fermion(hot_gauge.lattice, rng=7)
        v = random_fermion(hot_gauge.lattice, rng=8)
        lhs = inner(u, m.apply(v))
        rhs = inner(apply_gamma5(m.apply(apply_gamma5(u))), v)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_apply_dagger_is_adjoint(self, hot_gauge):
        m = WilsonDirac(hot_gauge, mass=0.1)
        u = random_fermion(hot_gauge.lattice, rng=9)
        v = random_fermion(hot_gauge.lattice, rng=10)
        assert inner(u, m.apply(v)) == pytest.approx(inner(m.apply_dagger(u), v), rel=1e-10)

    def test_free_field_dispersion(self):
        """On a unit gauge field (periodic BCs) plane waves diagonalise the
        hopping term: M e^{ipx} chi = [m + sum(1 - cos p) + i sum gamma sin p] e^{ipx} chi."""
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.cold(lat)
        m = WilsonDirac(gauge, mass=0.25, phases=PERIODIC_PHASES)
        n = np.array([1, 0, 2, 3])  # momentum integers per direction
        p = 2.0 * np.pi * n / np.array(lat.shape)
        phase = np.exp(1j * np.einsum("tzyxd,d->tzyx", lat.coords, p))
        chi = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        psi = phase[..., None, None] * chi

        mat = (m.mass + np.sum(1.0 - np.cos(p))) * np.eye(4, dtype=complex)
        for mu in range(4):
            mat = mat + 1j * np.sin(p[mu]) * GAMMAS[mu]
        expected = phase[..., None, None] * np.einsum("st,tc->sc", mat, chi)
        assert np.allclose(m.apply(psi), expected, atol=1e-10)

    def test_cold_zero_momentum_eigenvalue(self):
        lat = Lattice4D((4, 4, 4, 4))
        m = WilsonDirac(GaugeField.cold(lat), mass=0.5, phases=PERIODIC_PHASES)
        psi = zero_fermion(lat)
        psi[..., 0, 0] = 1.0  # constant field = zero-momentum plane wave
        assert np.allclose(m.apply(psi), 0.5 * psi, atol=1e-12)

    def test_kappa_and_diag(self, hot_gauge):
        m = WilsonDirac(hot_gauge, mass=0.0)
        assert m.kappa == pytest.approx(1.0 / 8.0)
        assert m.diag == 4.0

    def test_normal_op_hermitian_positive(self, hot_gauge):
        mm = WilsonDirac(hot_gauge, mass=0.2).normal_op()
        u = random_fermion(hot_gauge.lattice, rng=11)
        v = random_fermion(hot_gauge.lattice, rng=12)
        assert inner(u, mm.apply(v)) == pytest.approx(inner(mm.apply(u), v), rel=1e-10)
        assert inner(u, mm.apply(u)).real > 0.0
        assert abs(inner(u, mm.apply(u)).imag) < 1e-8 * norm2(u)

    def test_flop_accounting(self, hot_gauge):
        m = WilsonDirac(hot_gauge, mass=0.2)
        psi = random_fermion(hot_gauge.lattice, rng=13)
        m(psi)
        m(psi)
        assert m.n_applies == 2
        assert m.flops_spent == 2 * m.flops_per_apply
        m.reset_counters()
        assert m.flops_spent == 0

    def test_astype_roundtrip(self, hot_gauge):
        m = WilsonDirac(hot_gauge, mass=0.2)
        m32 = m.astype(np.complex64)
        psi = random_fermion(hot_gauge.lattice, rng=14).astype(np.complex64)
        out32 = m32.apply(psi)
        out64 = m.apply(psi.astype(np.complex128))
        assert out32.dtype == np.complex64
        assert np.allclose(out32, out64, atol=1e-4)


class TestCloverDirac:
    def test_reduces_to_wilson_at_csw_zero(self, hot_gauge):
        psi = random_fermion(hot_gauge.lattice, rng=16)
        w = WilsonDirac(hot_gauge, 0.1).apply(psi)
        c = CloverDirac(hot_gauge, 0.1, csw=0.0).apply(psi)
        assert np.allclose(w, c, atol=1e-12)

    def test_clover_vanishes_on_free_field(self, tiny_lattice):
        gauge = GaugeField.cold(tiny_lattice)
        psi = random_fermion(tiny_lattice, rng=17)
        c = CloverDirac(gauge, 0.1, csw=1.0)
        assert np.allclose(c.clover_term(psi), 0.0, atol=1e-12)
        for mu in range(4):
            for nu in range(mu + 1, 4):
                assert np.allclose(clover_field_strength(gauge.u, mu, nu), 0.0, atol=1e-12)

    def test_field_strength_hermitian_traceless(self, hot_gauge):
        f = clover_field_strength(hot_gauge.u, 0, 2)
        assert np.allclose(f, np.conj(np.swapaxes(f, -1, -2)), atol=1e-12)
        assert np.allclose(np.trace(f, axis1=-2, axis2=-1), 0.0, atol=1e-12)

    def test_gamma5_hermiticity(self, hot_gauge):
        c = CloverDirac(hot_gauge, mass=0.2, csw=1.2)
        u = random_fermion(hot_gauge.lattice, rng=18)
        v = random_fermion(hot_gauge.lattice, rng=19)
        assert inner(u, c.apply(v)) == pytest.approx(inner(c.apply_dagger(u), v), rel=1e-10)

    def test_clover_term_hermitian(self, hot_gauge):
        c = CloverDirac(hot_gauge, mass=0.2, csw=1.0)
        u = random_fermion(hot_gauge.lattice, rng=20)
        v = random_fermion(hot_gauge.lattice, rng=21)
        assert inner(u, c.clover_term(v)) == pytest.approx(
            np.conj(inner(v, c.clover_term(u))), rel=1e-10
        )

    def test_flops_exceed_wilson(self, hot_gauge):
        assert (
            CloverDirac(hot_gauge, 0.1).flops_per_apply
            > WilsonDirac(hot_gauge, 0.1).flops_per_apply
        )


class TestEvenOdd:
    def test_hopping_switches_parity(self, hot_gauge):
        eo = EvenOddWilson(hot_gauge, mass=0.3)
        psi = random_fermion(hot_gauge.lattice, rng=22)
        psi_e = mask_field(psi, eo.even)
        hop = hopping_term(hot_gauge.u, psi_e)
        # The image of an even field lives entirely on odd sites.
        assert np.allclose(mask_field(hop, eo.even), 0.0, atol=1e-13)

    def test_schur_solve_equals_full_solve(self, hot_gauge):
        """Schur solve + reconstruction must satisfy the full M x = b."""
        eo = EvenOddWilson(hot_gauge, mass=0.8)
        schur = eo.schur_operator()
        b = random_fermion(hot_gauge.lattice, rng=23)
        b_hat = eo.prepare_rhs(b)

        # Solve M_hat x_e = b_hat exactly via dense linear algebra on the
        # even subspace (small lattice, fine).
        from repro.solvers import cg

        res = cg(schur.normal_op(), schur.apply_dagger(b_hat), tol=1e-12, max_iter=4000)
        x = eo.reconstruct(res.x, b)
        assert norm(eo.full_operator_apply(x) - b) / norm(b) < 1e-8

    def test_schur_gamma5_hermitian(self, hot_gauge):
        eo = EvenOddWilson(hot_gauge, mass=0.3)
        schur = eo.schur_operator()
        u = mask_field(random_fermion(hot_gauge.lattice, rng=24), eo.even)
        v = mask_field(random_fermion(hot_gauge.lattice, rng=25), eo.even)
        assert inner(u, schur.apply(v)) == pytest.approx(
            inner(schur.apply_dagger(u), v), rel=1e-10
        )

    def test_schur_preserves_even_support(self, hot_gauge):
        eo = EvenOddWilson(hot_gauge, mass=0.3)
        x = mask_field(random_fermion(hot_gauge.lattice, rng=26), eo.even)
        y = eo.schur_operator().apply(x)
        assert np.allclose(mask_field(y, eo.odd), 0.0, atol=1e-13)

    def test_refuses_odd_extent(self):
        """The checkerboard does not close across an odd boundary; the
        solve used to run to max_iter and return unconverged."""
        with pytest.raises(ValueError, match=r"even extents.*\(3, 4, 4, 4\)"):
            EvenOddWilson(GaugeField.cold(Lattice4D((3, 4, 4, 4))), mass=0.3)

    # Both kernels' parity entries against the closed formula, and against
    # each other byte for byte: X = 2 (a half lattice one site wide), extents
    # mixing 2, 4, 6 and 16, every +-1 boundary including X, and phases the
    # half lattice does not take (the lattice route).  Inputs carry junk on
    # the odd sites throughout.
    EO_DIMS = [(4, 2, 6, 2), (2, 6, 4, 4), (16, 2, 2, 4), (6, 4, 2, 16)]
    EO_PHASES = {
        "antiperiodic-t": (-1.0, 1.0, 1.0, 1.0),
        "periodic": PERIODIC_PHASES,
        "antiperiodic-all": (-1.0, -1.0, -1.0, -1.0),
        "twisted": (np.exp(0.3j), 1.0, -1.0, np.exp(-0.2j)),
    }

    @staticmethod
    def _eo_pair(dims, dtype, phases, mass=0.3):
        gauge = GaugeField.hot(Lattice4D(dims), rng=41).astype(dtype)
        return (
            EvenOddWilson(gauge, mass, phases, kernel="fused"),
            EvenOddWilson(gauge, mass, phases, kernel="reference"),
        )

    @staticmethod
    def _fields(dims, dtype, n, seed=42):
        rng = np.random.default_rng(seed)
        shape = (n,) + dims + (4, 3)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)

    @pytest.mark.parametrize("phases", EO_PHASES.values(), ids=EO_PHASES.keys())
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("dims", EO_DIMS, ids=lambda d: "x".join(map(str, d)))
    def test_schur_forms_match_masked_reference(self, dims, dtype, phases, schur_formula):
        fused, reference = self._eo_pair(dims, dtype, phases)
        schur, oracle = fused.schur_operator(), reference.schur_operator()
        x, y = self._fields(dims, dtype, 2)
        u = fused.gauge.u
        want, want_dagger = oracle.apply(x), oracle.apply_dagger(y)
        assert np.array_equal(want, schur_formula(u, x, 0.3, phases))
        assert np.array_equal(want_dagger, schur_formula(u, y, 0.3, phases, dagger=True))
        assert not want[fused.odd].any()
        assert schur.apply(x).tobytes() == want.tobytes()
        assert schur.apply_dagger(y).tobytes() == want_dagger.tobytes()
        out = np.empty_like(x)
        # Twice: the second pass runs on a warm workspace.
        for _ in range(2):
            assert schur.apply_into(x, out).tobytes() == want.tobytes()
            assert schur.apply_dagger_into(y, out).tobytes() == want_dagger.tobytes()
        strided = np.full(dims + (2, 4, 3), np.nan, dtype=dtype)[..., 1, :, :]
        assert not strided.flags.c_contiguous
        assert np.array_equal(schur.apply_into(x, strided), want)

    @pytest.mark.parametrize("phases", EO_PHASES.values(), ids=EO_PHASES.keys())
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
    def test_rhs_and_reconstruction_match_masked_forms(self, dtype, phases):
        dims, d = (4, 6, 2, 4), 4.3
        fused, reference = self._eo_pair(dims, dtype, phases)
        b, x_e, psi = self._fields(dims, dtype, 3)
        u, even, odd = fused.gauge.u, fused.even, fused.odd

        def hop(field, onto):
            return mask_field(hopping_term(u, field, phases), onto)

        b_hat = mask_field(b, even) + hop(mask_field(b, odd), even) / (2.0 * d)
        x = mask_field(x_e, even) + (mask_field(b, odd) + 0.5 * hop(x_e, odd)) / d
        for eo in (fused, reference):
            assert np.array_equal(eo.prepare_rhs(b), b_hat)
            assert np.array_equal(eo.reconstruct(x_e, b), x)
            assert np.array_equal(
                eo.full_operator_apply(psi), d * psi - 0.5 * hopping_term(u, psi, phases)
            )

    @pytest.mark.parametrize("phases", ["antiperiodic-t", "twisted"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("kernel", ["fused", "reference"])
    def test_schur_normal_op_is_the_normal_operator(self, kernel, dtype, phases):
        """``normal_op()`` keeps M_hat^dag M_hat on half-lattice planes (gathered
        once, stored once); every form is ``NormalOperator(schur)`` byte for
        byte — half-lattice hops and the lattice route of twisted phases
        alike — with the same label, apply count and ``applies``/``flops``
        counters."""
        from repro.telemetry import full_reset, get_registry, telemetry_mode

        dims = (4, 4, 2, 4)
        gauge = GaugeField.hot(Lattice4D(dims), rng=41).astype(dtype)
        schur = EvenOddWilson(gauge, 0.3, self.EO_PHASES[phases], kernel=kernel).schur_operator()
        planes, wrapper = schur.normal_op(), NormalOperator(schur)
        X = self._fields(dims, dtype, 3)

        def forms(op):
            out = np.full_like(X, np.nan)
            yield op.apply(X[0])
            yield op.apply_dagger(X[1])
            yield op.apply_into(X[2], out[0])
            yield op.apply_dagger_into(X[0], out[1])
            yield op.apply_batch_into(X, np.empty_like(X))
            yield op.apply_dagger_batch_into(X[1:], np.empty_like(X[1:]))

        for got, want in zip(forms(planes), forms(wrapper), strict=True):
            assert got.tobytes() == want.tobytes()
        assert planes.telemetry_label == wrapper.telemetry_label
        assert planes.flops_per_apply == wrapper.flops_per_apply
        counted = []
        for op in (planes, wrapper):
            op.reset_counters()
            full_reset()
            with telemetry_mode("counters"):
                op(X[0])
                op.apply_batch(X)
                counters = get_registry().counters()
            label = op.telemetry_label
            counted.append((op.n_applies, counters[f"applies/{label}"], counters[f"flops/{label}"]))
            full_reset()
        assert counted[0] == counted[1] == (4, 4, 4 * wrapper.flops_per_apply)

    @pytest.mark.parametrize("phases", ["antiperiodic-all", "twisted"])
    def test_every_kernel_reaches_the_parity_entry(self, phases):
        """Every form of every kernel runs on the parity entry, under +-1 and
        twisted phases alike; the two kernels' parity hops agree byte for
        byte (twisted phases: both take the lattice route around their own
        full hop)."""
        dims = (4, 4, 2, 4)
        x = self._fields(dims, np.complex128, 1)[0]
        pair = self._eo_pair(dims, np.complex128, self.EO_PHASES[phases])
        calls = []
        for eo in pair:
            hop = eo._kernel.hop_parity_planes

            def counted(*args, hop=hop, name=eo.kernel_name):
                calls.append(name)
                return hop(*args)

            eo._kernel.hop_parity_planes = counted
        forms = [
            (eo.schur_operator().apply(x), eo.prepare_rhs(x), eo.reconstruct(x, x)) for eo in pair
        ]
        # Two half hops for the Schur apply, one each to prepare and reconstruct.
        assert calls == ["fused"] * 4 + ["reference"] * 4
        for got, want in zip(*forms, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_solve_is_unchanged_bit_for_bit(self):
        """Same Schur bits, same CG iterates: iteration count, residual
        history and solution of the even-odd solve on a fixed 8x4^3 case."""
        from repro.solvers import solve_wilson_eo

        lat = Lattice4D((8, 4, 4, 4))
        gauge = GaugeField.warm(lat, eps=0.35, rng=43)
        b = random_fermion(lat, rng=44)
        fused = solve_wilson_eo(EvenOddWilson(gauge, 0.08, kernel="fused"), b, tol=1e-8)
        oracle = solve_wilson_eo(EvenOddWilson(gauge, 0.08, kernel="reference"), b, tol=1e-8)
        assert fused.converged and fused.iterations == oracle.iterations > 10
        assert fused.history == oracle.history
        assert np.array_equal(fused.x, oracle.x)


class TestDomainWall:
    def test_shape_validation(self, tiny_lattice):
        d = DomainWallDirac(GaugeField.hot(tiny_lattice, rng=27), mf=0.05, ls=4)
        with pytest.raises(ValueError):
            d.apply(np.zeros((2,) + tiny_lattice.shape + (4, 3), dtype=complex))
        with pytest.raises(ValueError):
            DomainWallDirac(GaugeField.cold(tiny_lattice), mf=0.1, ls=1)

    def test_dagger_is_adjoint(self, tiny_lattice):
        """The reflection identity D^dag = G5 R D R G5 against the inner-product
        definition of the adjoint."""
        d = DomainWallDirac(GaugeField.hot(tiny_lattice, rng=28), mf=0.04, ls=4)
        u = d.random_field(rng=29)
        v = d.random_field(rng=30)
        assert inner(u, d.apply(v)) == pytest.approx(inner(d.apply_dagger(u), v), rel=1e-10)

    def test_normal_op_positive(self, tiny_lattice):
        d = DomainWallDirac(GaugeField.hot(tiny_lattice, rng=31), mf=0.04, ls=4)
        nop = d.normal_op()
        u = d.random_field(rng=32)
        assert inner(u, nop.apply(u)).real > 0.0

    def test_linearity(self, tiny_lattice):
        d = DomainWallDirac(GaugeField.hot(tiny_lattice, rng=33), mf=0.04, ls=4)
        a, b = d.random_field(rng=34), d.random_field(rng=35)
        assert np.allclose(
            d.apply(a + 2j * b), d.apply(a) + 2j * d.apply(b), atol=1e-12
        )

    def test_flops_scale_with_ls(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        f4 = DomainWallDirac(g, mf=0.1, ls=4).flops_per_apply
        f8 = DomainWallDirac(g, mf=0.1, ls=8).flops_per_apply
        assert f8 == 2 * f4

    def test_mass_term_couples_walls(self, tiny_lattice):
        """Only the wall slices differ when mf changes."""
        g = GaugeField.hot(tiny_lattice, rng=36)
        d0 = DomainWallDirac(g, mf=0.0, ls=4)
        d1 = DomainWallDirac(g, mf=0.5, ls=4)
        psi = d0.random_field(rng=37)
        diff = d1.apply(psi) - d0.apply(psi)
        assert norm2(diff[1:3]) == pytest.approx(0.0, abs=1e-20)
        assert norm2(diff[0]) > 0.0 and norm2(diff[3]) > 0.0


class TestDecomposed:
    @pytest.mark.parametrize(
        "grid_dims", [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 2), (2, 1, 3, 1)]
    )
    def test_matches_single_domain(self, grid_dims):
        """The headline correctness property of the whole comm substrate."""
        lat = Lattice4D((4, 4, 6, 4))
        gauge = GaugeField.hot(lat, rng=38)
        psi = random_fermion(lat, rng=39)
        ref = WilsonDirac(gauge, mass=0.15).apply(psi)
        dec = DecomposedWilsonDirac(gauge, mass=0.15, comm=VirtualComm(RankGrid(grid_dims)))
        assert np.allclose(dec.apply(psi), ref, atol=1e-12), grid_dims

    def test_dagger_matches(self):
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=40)
        psi = random_fermion(lat, rng=41)
        ref = WilsonDirac(gauge, mass=0.15).apply_dagger(psi)
        dec = DecomposedWilsonDirac(gauge, 0.15, VirtualComm(RankGrid((2, 1, 1, 1))))
        assert np.allclose(dec.apply_dagger(psi), ref, atol=1e-12)

    def test_fused_and_reference_agree_bitwise_as_single_domain_truth(self):
        """Both kernel backends are interchangeable as the single-domain
        reference of the parallel-correctness property: bit-for-bit equal
        to each other, and the decomposed path matches either."""
        lat = Lattice4D((4, 4, 6, 4))
        gauge = GaugeField.hot(lat, rng=38)
        psi = random_fermion(lat, rng=39)
        ref = WilsonDirac(gauge, mass=0.15, kernel="reference").apply(psi)
        fused = WilsonDirac(gauge, mass=0.15, kernel="fused").apply(psi)
        assert np.array_equal(ref, fused)
        dec = DecomposedWilsonDirac(gauge, mass=0.15, comm=VirtualComm(RankGrid((2, 2, 1, 1))))
        assert np.allclose(dec.apply(psi), fused, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, grid_dims, backend",
        [
            pytest.param((4, 4, 6, 4), (2, 1, 3, 1), "virtual", id="virtual"),
        ] + [
            # Rank boxes of several T tiles (3 x 16^3; 3 x 8 x 16^2, ragged 2 + 1).
            pytest.param((6, 16, 16, 16), grid, backend,
                         id=f"tiles-{'x'.join(map(str, grid))}-{backend}")
            for grid in ((2, 1, 1, 1), (2, 2, 1, 1))
            for backend in ("virtual", "shm")
        ],
    )
    def test_into_forms_write_caller_buffers_bit_for_bit(self, shape, grid_dims, backend):
        """``apply_into`` / ``apply_dagger_into`` scatter from and gather into
        the caller's arrays (strided ones included), gamma5 riding on the
        copies, and equal the single-domain operator byte for byte."""
        from repro.comm import make_comm

        lat = Lattice4D(shape)
        gauge = GaugeField.hot(lat, rng=44)
        wide = np.stack([random_fermion(lat, rng=45), random_fermion(lat, rng=46)], axis=1)
        psi = wide[:, 0]
        assert not psi.flags.c_contiguous
        single = WilsonDirac(gauge, mass=0.15)
        with make_comm(grid_dims, backend) as comm:
            dec = DecomposedWilsonDirac(gauge, 0.15, comm)
            out = np.full_like(wide, np.nan)
            assert dec.apply_into(psi, out[:, 1]) is not None
            assert out[:, 1].tobytes() == single.apply(psi).tobytes()
            assert dec.apply(psi).tobytes() == out[:, 1].tobytes()
            assert np.all(np.isnan(out[:, 0]))
            dec.apply_dagger_into(psi, out[:, 0])
            assert out[:, 0].tobytes() == single.apply_dagger(psi).tobytes()
            assert out[:, 0].tobytes() == apply_gamma5(dec.apply(apply_gamma5(psi))).tobytes()
            assert dec.apply_dagger(psi).tobytes() == out[:, 0].tobytes()
            # Other precisions keep going through the reference cycle.
            psi32 = psi.astype(np.complex64)
            assert np.allclose(dec.apply_dagger(psi32), out[:, 0], atol=1e-5)

    def test_trace_is_populated(self):
        lat = Lattice4D((4, 4, 4, 4))
        gauge = GaugeField.hot(lat, rng=42)
        comm = VirtualComm(RankGrid((2, 2, 1, 1)))
        dec = DecomposedWilsonDirac(gauge, 0.15, comm)
        comm.trace.clear()  # drop the gauge-halo setup traffic
        dec.apply(random_fermion(lat, rng=43))
        # 4 ranks x 2 decomposed axes x 2 directions.
        assert comm.trace.message_count() == 16
        assert comm.trace.flops_per_rank() > 0


class TestOperatorProtocol:
    def test_matrix_operator_validates(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.zeros((2, 3)))

    def test_matrix_operator_apply(self):
        m = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        op = MatrixOperator(m)
        x = RNG.normal(size=(2, 3)) + 0j
        assert np.allclose(op.apply(x), (m @ x.ravel()).reshape(2, 3))
        assert np.allclose(op.apply_dagger(x), (m.conj().T @ x.ravel()).reshape(2, 3))

    def test_normal_operator_is_mdag_m(self):
        m = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
        nop = NormalOperator(MatrixOperator(m))
        x = RNG.normal(size=5) + 0j
        assert np.allclose(nop.apply(x), m.conj().T @ (m @ x))
        assert nop.flops_per_apply == 2 * MatrixOperator(m).flops_per_apply

    def test_call_counts(self):
        op = MatrixOperator(np.eye(3, dtype=complex))
        op(np.ones(3, dtype=complex))
        assert op.n_applies == 1

    def test_base_raises(self):
        from repro.dirac.operator import LinearOperator

        base = LinearOperator()
        with pytest.raises(NotImplementedError):
            base.apply(np.zeros(1))
        with pytest.raises(NotImplementedError):
            base.apply_dagger(np.zeros(1))
