"""Lanczos + deflated-CG tests against dense oracles and the Wilson operator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import MatrixOperator, WilsonDirac
from repro.fields import GaugeField, norm, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import EigenPairs, cg, deflated_cg, lanczos

RNG = np.random.default_rng(1618)


def _hpd(n: int, eigs: np.ndarray, seed: int = 0) -> tuple[MatrixOperator, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return MatrixOperator((q * eigs) @ q.conj().T), eigs, q


class TestLanczos:
    def test_recovers_lowest_eigenvalues(self):
        eigs = np.concatenate([[0.01, 0.05, 0.1], np.linspace(1, 10, 37)])
        op, _, _ = _hpd(40, eigs, seed=1)
        pairs = lanczos(op, 3, (40,), krylov_dim=40, rng=2)
        assert np.allclose(pairs.values, [0.01, 0.05, 0.1], rtol=1e-6)
        assert np.all(pairs.residuals < 1e-6)

    def test_eigenvectors_satisfy_equation(self):
        eigs = np.linspace(0.1, 5.0, 30)
        op, _, _ = _hpd(30, eigs, seed=3)
        pairs = lanczos(op, 4, (30,), krylov_dim=30, rng=4)
        for lam, v in zip(pairs.values, pairs.vectors):
            assert norm(op.apply(v) - lam * v) < 1e-6
            assert norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_vectors_orthonormal(self):
        eigs = np.linspace(0.5, 3.0, 25)
        op, _, _ = _hpd(25, eigs, seed=5)
        pairs = lanczos(op, 5, (25,), krylov_dim=25, rng=6)
        for i, vi in enumerate(pairs.vectors):
            for j, vj in enumerate(pairs.vectors):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(vi, vj) - expected) < 1e-6, (i, j)

    def test_field_shaped_operator(self):
        lat = Lattice4D((4, 2, 2, 2))
        nop = WilsonDirac(GaugeField.hot(lat, rng=7), mass=0.5).normal_op()
        pairs = lanczos(nop, 2, lat.shape + (4, 3), krylov_dim=120, rng=8)
        assert pairs.vectors[0].shape == lat.shape + (4, 3)
        assert np.all(pairs.values > 0)
        assert pairs.values[0] <= pairs.values[1]
        # 120-dim subspace of a 768-dim operator: extremal pairs converge
        # first but not to machine precision.
        assert np.all(pairs.residuals < 1e-2)

    def test_small_operator_exact(self):
        """Krylov dim = operator size: exact diagonalisation."""
        eigs = np.array([1.0, 2.0, 3.0, 4.0])
        op, _, _ = _hpd(4, eigs, seed=9)
        pairs = lanczos(op, 4, (4,), krylov_dim=4, rng=10)
        assert np.allclose(pairs.values, eigs, atol=1e-9)

    def test_validates(self):
        op, _, _ = _hpd(5, np.ones(5), seed=11)
        with pytest.raises(ValueError):
            lanczos(op, 0, (5,))
        with pytest.raises(ValueError):
            lanczos(op, 10, (5,), krylov_dim=8)


class TestDeflatedCG:
    def test_matches_plain_cg_solution(self):
        eigs = np.concatenate([[1e-3, 5e-3], np.linspace(0.5, 5, 28)])
        op, _, _ = _hpd(30, eigs, seed=12)
        b = RNG.normal(size=30) + 1j * RNG.normal(size=30)
        pairs = lanczos(op, 2, (30,), krylov_dim=30, rng=13)
        res_d = deflated_cg(op, b, pairs, tol=1e-10, max_iter=500)
        assert res_d.converged
        assert norm(op.apply(res_d.x) - b) / norm(b) < 1e-7

    def test_fewer_iterations_than_plain(self):
        """The deflation payoff: a dense cluster of low modes (the hard
        case for plain CG) removed from the iteration."""
        eigs = np.concatenate([np.geomspace(1e-4, 1e-2, 10), np.linspace(0.5, 3, 40)])
        op, _, _ = _hpd(50, eigs, seed=14)
        b = RNG.normal(size=50) + 0j
        pairs = lanczos(op, 10, (50,), krylov_dim=50, rng=15)
        res_plain = cg(op, b, tol=1e-8, max_iter=5000)
        res_defl = deflated_cg(op, b, pairs, tol=1e-8, max_iter=5000)
        assert res_defl.converged
        assert res_defl.iterations < 0.6 * res_plain.iterations

    def test_empty_deflation_space_is_plain_cg(self):
        op, _, _ = _hpd(10, np.linspace(1, 2, 10), seed=16)
        b = RNG.normal(size=10) + 0j
        empty = EigenPairs(np.array([]), [], np.array([]))
        res = deflated_cg(op, b, empty, tol=1e-10)
        assert res.converged
        assert norm(op.apply(res.x) - b) / norm(b) < 1e-8

    def test_rejects_nonpositive_eigenvalues(self):
        op, _, _ = _hpd(5, np.linspace(1, 2, 5), seed=17)
        bad = EigenPairs(np.array([-1.0]), [np.ones(5, dtype=complex)], np.array([0.0]))
        with pytest.raises(ValueError):
            deflated_cg(op, np.ones(5, dtype=complex), bad)

    def test_unconverged_pairs_do_not_report_convergence(self):
        """Ritz pairs from a shallow Krylov space are not eigenpairs: the
        deflated recurrence converges on a system that is no longer the
        caller's, and the result must say what ``op`` itself says."""
        eigs = np.concatenate([np.geomspace(1e-3, 1e-2, 6), np.linspace(0.5, 4, 54)])
        op, _, _ = _hpd(60, eigs, seed=21)
        b = RNG.normal(size=60) + 1j * RNG.normal(size=60)
        pairs = lanczos(op, 6, (60,), krylov_dim=12, rng=22)
        assert pairs.residuals.max() > 1e-2  # deliberately unconverged
        tol = 1e-8
        res = deflated_cg(op, b, pairs, tol=tol, max_iter=2000)
        true_res = norm(b - op.apply(res.x)) / norm(b)
        assert true_res > 1e3 * tol  # the pairs' inexactness caps the accuracy
        assert res.residual == pytest.approx(true_res, rel=1e-6)
        assert not res.converged
        # Converged pairs on the same system: the verdict flips with the truth.
        good = lanczos(op, 6, (60,), krylov_dim=60, rng=22)
        res = deflated_cg(op, b, good, tol=tol, max_iter=2000)
        assert res.converged and res.residual <= 10 * tol
        assert res.residual == pytest.approx(norm(b - op.apply(res.x)) / norm(b), rel=1e-6)

    def test_wilson_end_to_end_deflation(self):
        """Deflated CG on M^dag M reproduces the plain-CG solution.

        A small warm-gauge Wilson operator is well-conditioned (lambda_min
        ~ 0.5 even at m = 0.02), so no iteration win is expected here —
        the payoff case is the dense clustered-spectrum test above.  This
        checks the full lattice plumbing and accuracy."""
        lat = Lattice4D((4, 4, 2, 2))
        gauge = GaugeField.warm(lat, eps=0.3, rng=18)
        nop = WilsonDirac(gauge, mass=0.02).normal_op()
        b = random_fermion(lat, rng=19)
        pairs = lanczos(nop, 4, lat.shape + (4, 3), krylov_dim=300, rng=20)
        assert np.all(pairs.residuals < 1e-6)  # converged pairs at this depth
        tol = 1e-8
        res_plain = cg(nop, b, tol=tol, max_iter=20000)
        res_defl = deflated_cg(nop, b, pairs, tol=tol, max_iter=20000)
        assert res_defl.converged
        assert norm(nop.apply(res_defl.x) - b) / norm(b) < 1e-6
        assert norm(res_defl.x - res_plain.x) / norm(res_plain.x) < 1e-5
