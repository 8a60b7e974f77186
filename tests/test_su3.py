"""Unit + property tests for the SU(3) algebra substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import su3

RNG = np.random.default_rng(2024)


def _is_unitary(u, tol=1e-12):
    return np.allclose(su3.mul_dag(u, u), su3.identity(u.shape[:-2]), atol=tol)


def _is_special(u, tol=1e-10):
    return np.allclose(su3.det(u), 1.0, atol=tol)


class TestMatrix:
    def test_mul_matches_matmul(self):
        a = RNG.normal(size=(5, 3, 3)) + 1j * RNG.normal(size=(5, 3, 3))
        b = RNG.normal(size=(5, 3, 3)) + 1j * RNG.normal(size=(5, 3, 3))
        assert np.allclose(su3.mul(a, b), a @ b)

    def test_mul_dag_and_dag_mul(self):
        a = su3.random_su3((4,), rng=1)
        b = su3.random_su3((4,), rng=2)
        bd = su3.dag(b)
        assert np.allclose(su3.mul_dag(a, b), a @ bd)
        assert np.allclose(su3.dag_mul(a, b), su3.dag(a) @ b)

    def test_dag_is_involution(self):
        a = su3.random_su3((6,), rng=3)
        assert np.allclose(su3.dag(su3.dag(a)), a)

    def test_trace_matches_numpy(self):
        a = RNG.normal(size=(7, 3, 3)) + 1j * RNG.normal(size=(7, 3, 3))
        assert np.allclose(su3.trace(a), np.trace(a, axis1=-2, axis2=-1))
        assert np.allclose(su3.re_trace(a), np.trace(a, axis1=-2, axis2=-1).real)

    def test_identity_shapes(self):
        i = su3.identity((2, 5))
        assert i.shape == (2, 5, 3, 3)
        assert np.allclose(su3.trace(i), 3.0)

    def test_identity_like(self):
        a = su3.random_su3((2, 2), rng=4).astype(np.complex64)
        i = su3.identity_like(a)
        assert i.shape == a.shape and i.dtype == a.dtype

    def test_frobenius_norm(self):
        i = su3.identity(())
        assert su3.frobenius_norm(i) == pytest.approx(np.sqrt(3.0))


class TestGroup:
    def test_random_su3_is_special_unitary(self):
        u = su3.random_su3((10,), rng=5)
        assert _is_unitary(u)
        assert _is_special(u)

    def test_random_su3_deterministic(self):
        assert np.allclose(su3.random_su3((3,), rng=8), su3.random_su3((3,), rng=8))

    def test_random_su3_haar_trace_mean(self):
        # Haar measure on SU(3): <tr U> = 0; loose statistical bound.
        u = su3.random_su3((4000,), rng=6)
        assert abs(np.mean(su3.trace(u))) < 0.1

    def test_near_identity_scales_with_eps(self):
        u_small = su3.random_su3_near_identity((50,), eps=0.01, rng=7)
        u_large = su3.random_su3_near_identity((50,), eps=0.5, rng=7)
        d_small = np.mean(su3.frobenius_norm(u_small - su3.identity((50,))))
        d_large = np.mean(su3.frobenius_norm(u_large - su3.identity((50,))))
        assert d_small < d_large
        assert _is_unitary(u_small, tol=1e-10)

    def test_expm_su3_unitary_and_inverse(self):
        a = su3.random_algebra((20,), rng=9, scale=0.7)
        e = su3.expm_su3(a)
        assert _is_unitary(e, tol=1e-12)
        assert _is_special(e)
        # exp(-a) inverts exp(a)
        assert np.allclose(su3.mul(e, su3.expm_su3(-a)), su3.identity((20,)), atol=1e-12)

    def test_expm_su3_small_angle_matches_series(self):
        a = su3.random_algebra((10,), rng=10, scale=1e-4)
        series = su3.identity((10,)) + a + 0.5 * (a @ a)
        assert np.allclose(su3.expm_su3(a), series, atol=1e-10)

    def test_project_algebra_idempotent_and_traceless(self):
        m = RNG.normal(size=(8, 3, 3)) + 1j * RNG.normal(size=(8, 3, 3))
        p = su3.project_algebra(m)
        assert np.allclose(su3.trace(p), 0.0, atol=1e-13)
        assert np.allclose(p, -su3.dag(p))  # anti-Hermitian
        assert np.allclose(su3.project_algebra(p), p)

    def test_project_su3_restores_group(self):
        u = su3.random_su3((12,), rng=11)
        noisy = u + 0.05 * (RNG.normal(size=u.shape) + 1j * RNG.normal(size=u.shape))
        p = su3.project_su3(noisy)
        assert _is_unitary(p)
        assert _is_special(p)
        # Projection should stay close to the original group element.
        assert np.mean(su3.frobenius_norm(p - u)) < 0.5

    def test_reunitarize_restores_group(self):
        u = su3.random_su3((12,), rng=12)
        noisy = u * 1.001 + 1e-3
        r = su3.reunitarize(noisy)
        assert _is_unitary(r, tol=1e-12)
        assert _is_special(r)

    def test_unitarity_violation_zero_on_group(self):
        u = su3.random_su3((5,), rng=13)
        assert su3.unitarity_violation(u) < 1e-12
        assert su3.unitarity_violation(1.01 * u) > 1e-3


class TestGellmann:
    def test_gellmann_traceless_hermitian(self):
        lam = su3.gellmann_matrices()
        assert lam.shape == (8, 3, 3)
        assert np.allclose(np.trace(lam, axis1=-2, axis2=-1), 0.0)
        assert np.allclose(lam, np.conj(np.swapaxes(lam, -1, -2)))

    def test_gellmann_normalisation(self):
        lam = su3.gellmann_matrices()
        # tr(lambda_a lambda_b) = 2 delta_ab
        gram = np.einsum("aij,bji->ab", lam, lam)
        assert np.allclose(gram, 2.0 * np.eye(8), atol=1e-13)

    def test_coeff_roundtrip(self):
        c = RNG.normal(size=(6, 8))
        a = su3.coeffs_to_algebra(c)
        assert np.allclose(su3.algebra_to_coeffs(a), c, atol=1e-13)

    @pytest.mark.parametrize("shape", [(8,), (5, 8), (4, 4, 4, 4, 4, 8), (4, 8, 4, 4, 4, 8)])
    def test_coeffs_to_algebra_is_the_einsum_form_c_contiguous(self, shape):
        """The chunked ``matmul`` gives the bytes of the einsum it replaced
        (the HMC momenta, so every pinned ledger, depend on them), in a
        C-contiguous array, which the einsum's was not."""
        lam = su3.gellmann_matrices()
        for seed in range(3):
            c = np.random.default_rng(seed).normal(size=shape)
            got = su3.coeffs_to_algebra(c)
            want = 0.5j * np.einsum("...a,aij->...ij", c, lam, optimize=True)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_coeffs_to_algebra_lands_in_algebra(self):
        a = su3.coeffs_to_algebra(RNG.normal(size=(4, 8)))
        assert np.allclose(su3.project_algebra(a), a)

    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, coeffs):
        c = np.array(coeffs)
        assert np.allclose(su3.algebra_to_coeffs(su3.coeffs_to_algebra(c)), c, atol=1e-10)


class TestSu2:
    def test_su2_from_pauli_unitary_when_normalised(self):
        a = RNG.normal(size=(10, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        m = su3.su2_from_pauli(a)
        ident = np.eye(2)
        assert np.allclose(m @ np.conj(np.swapaxes(m, -1, -2)), ident, atol=1e-13)
        assert np.allclose(np.linalg.det(m), 1.0)

    def test_pauli_roundtrip(self):
        a = RNG.normal(size=(10, 4))
        assert np.allclose(su3.pauli_from_su2(su3.su2_from_pauli(a)), a, atol=1e-13)

    def test_embed_su2_is_su3(self):
        a = RNG.normal(size=(5, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        for pair in su3.su2_subgroups():
            g = su3.embed_su2(a, pair)
            assert _is_unitary(g)
            assert _is_special(g)

    def test_extract_embed_consistency(self):
        # Embedding then extracting returns the original coefficients.
        a = RNG.normal(size=(5, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        for pair in su3.su2_subgroups():
            g = su3.embed_su2(a, pair)
            assert np.allclose(su3.extract_su2(g, pair), a, atol=1e-13)

    def test_subgroups_cover_all_offdiagonals(self):
        pairs = su3.su2_subgroups()
        covered = {frozenset(p) for p in pairs}
        assert covered == {frozenset((0, 1)), frozenset((0, 2)), frozenset((1, 2))}
