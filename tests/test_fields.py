"""Gauge/fermion field constructors and field linear algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3
from repro.fields import (
    FERMION_SITE_DOF,
    GaugeField,
    axpy,
    fermion_shape,
    inner,
    norm,
    norm2,
    point_source,
    random_fermion,
    vector_reals,
    xpay,
    zero_fermion,
)
from repro.lattice import Lattice4D

RNG = np.random.default_rng(55)


class TestGaugeField:
    def test_cold_is_identity(self, small_lattice):
        g = GaugeField.cold(small_lattice)
        assert g.u.shape == (4,) + small_lattice.shape + (3, 3)
        assert np.allclose(su3.trace(g.u), 3.0)

    def test_hot_is_on_group(self, small_lattice):
        g = GaugeField.hot(small_lattice, rng=1)
        assert g.unitarity_violation() < 1e-12
        assert np.allclose(su3.det(g.u), 1.0)

    def test_hot_deterministic(self, small_lattice):
        a = GaugeField.hot(small_lattice, rng=5)
        b = GaugeField.hot(small_lattice, rng=5)
        assert np.array_equal(a.u, b.u)

    def test_warm_interpolates(self, tiny_lattice):
        g = GaugeField.warm(tiny_lattice, eps=0.05, rng=2)
        assert g.unitarity_violation() < 1e-10
        # Close to identity but not exactly.
        dist = np.mean(su3.frobenius_norm(g.u - su3.identity(g.u.shape[:-2])))
        assert 0.0 < dist < 0.5

    def test_warm_links_are_c_contiguous_exponentials(self, small_lattice):
        """Warm links are laid out C-contiguous (reshapes are views, so
        ``link_planes`` copies nothing first) with the exponential's values."""
        g = GaugeField.warm(small_lattice, eps=0.3, rng=6)
        want = su3.random_su3_near_identity((4,) + small_lattice.shape, eps=0.3, rng=6)
        assert g.u.flags.c_contiguous
        assert g.u.tobytes() == want.tobytes()
        assert GaugeField.warm(small_lattice, rng=6, dtype=np.complex64).u.flags.c_contiguous

    def test_copy_is_deep(self, tiny_lattice):
        g = GaugeField.hot(tiny_lattice, rng=3)
        h = g.copy()
        h.u[0, 0, 0, 0, 0] = 0.0
        assert g.unitarity_violation() < 1e-12

    def test_astype_casts(self, tiny_lattice):
        g = GaugeField.hot(tiny_lattice, rng=4)
        g32 = g.astype(np.complex64)
        assert g32.dtype == np.complex64
        assert np.allclose(g32.u, g.u, atol=1e-6)

    def test_reunitarize_fixes_drift(self, tiny_lattice):
        g = GaugeField.hot(tiny_lattice, rng=5)
        g.u *= 1.0 + 1e-5
        assert g.unitarity_violation() > 1e-6
        g.reunitarize()
        assert g.unitarity_violation() < 1e-12

    def test_mu_view(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        v = g.mu(2)
        assert v.shape == tiny_lattice.shape + (3, 3)
        v[0, 0, 0, 0] = 0.0  # view semantics
        assert np.allclose(g.u[2, 0, 0, 0, 0], 0.0)

    def test_nbytes(self, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        assert g.nbytes() == 4 * tiny_lattice.volume * 9 * 16


class TestFermion:
    def test_shapes(self, small_lattice):
        assert fermion_shape(small_lattice) == small_lattice.shape + (4, 3)
        assert zero_fermion(small_lattice).shape == fermion_shape(small_lattice)
        assert FERMION_SITE_DOF == 12

    def test_zero(self, tiny_lattice):
        z = zero_fermion(tiny_lattice)
        assert norm2(z) == 0.0

    def test_random_fermion_unit_variance(self):
        lat = Lattice4D((8, 8, 8, 8))
        psi = random_fermion(lat, rng=6)
        # <|psi|^2> per complex component is 1 by construction.
        mean_sq = norm2(psi) / psi.size
        assert mean_sq == pytest.approx(1.0, rel=0.02)

    def test_random_fermion_deterministic(self, tiny_lattice):
        assert np.array_equal(random_fermion(tiny_lattice, rng=7), random_fermion(tiny_lattice, rng=7))

    def test_point_source_single_entry(self, tiny_lattice):
        s = point_source(tiny_lattice, (1, 2, 3, 0), spin=2, color=1)
        assert norm2(s) == 1.0
        assert s[1, 2, 3, 0, 2, 1] == 1.0

    def test_point_source_wraps_coordinate(self, tiny_lattice):
        s = point_source(tiny_lattice, (5, 0, 0, 0), spin=0, color=0)
        assert s[1, 0, 0, 0, 0, 0] == 1.0

    def test_point_source_validates(self, tiny_lattice):
        with pytest.raises(ValueError):
            point_source(tiny_lattice, (0, 0, 0, 0), spin=4, color=0)
        with pytest.raises(ValueError):
            point_source(tiny_lattice, (0, 0, 0, 0), spin=0, color=3)


class TestLinalg:
    def test_inner_conjugate_symmetry(self):
        a = RNG.normal(size=(5, 4, 3)) + 1j * RNG.normal(size=(5, 4, 3))
        b = RNG.normal(size=(5, 4, 3)) + 1j * RNG.normal(size=(5, 4, 3))
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_inner_linearity_second_argument(self):
        a = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        b = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        c = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        assert inner(a, b + 2j * c) == pytest.approx(inner(a, b) + 2j * inner(a, c))

    def test_norm_relations(self):
        a = RNG.normal(size=(7, 4, 3)) + 1j * RNG.normal(size=(7, 4, 3))
        assert norm2(a) == pytest.approx(inner(a, a).real)
        assert norm(a) == pytest.approx(np.sqrt(norm2(a)))

    def test_axpy_xpay(self):
        x = RNG.normal(size=(3, 4, 3)) + 0j
        y = RNG.normal(size=(3, 4, 3)) + 0j
        assert np.allclose(axpy(2.0, x, y), y + 2.0 * x)
        assert np.allclose(xpay(x, -1.5, y), x - 1.5 * y)

    def test_vector_reals(self):
        assert vector_reals(np.zeros((2, 3), dtype=np.complex128)) == 12
        assert vector_reals(np.zeros((2, 3), dtype=np.float64)) == 6

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz_property(self, s1, s2):
        a = s1 * np.ones((4, 3), dtype=np.complex128)
        b = s2 * np.ones((4, 3), dtype=np.complex128) + 1j
        assert abs(inner(a, b)) <= norm(a) * norm(b) + 1e-9
