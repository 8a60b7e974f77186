"""Wilson loop tests: plaquettes, staples, clover leaves, rectangles."""

from __future__ import annotations

import numpy as np
import pytest

from repro import su3
from repro.fields import GaugeField
from repro.lattice import Lattice4D, shift
from repro.loops import (
    LinkPlanes,
    average_plaquette,
    clover_leaf_sum,
    plaquette_field,
    rectangle_field,
    staple_sum,
)
from repro.su3 import planes


class TestPlaquette:
    def test_cold_plaquette_is_one(self, cold_gauge):
        assert average_plaquette(cold_gauge.u) == pytest.approx(1.0)
        p = plaquette_field(cold_gauge.u, 0, 1)
        assert np.allclose(p, su3.identity(p.shape[:-2]))

    def test_hot_plaquette_near_zero(self, hot_gauge):
        # Haar-random links: <(1/3)Re tr P> = 0 with O(1/sqrt(V)) fluctuations.
        assert abs(average_plaquette(hot_gauge.u)) < 0.1

    def test_plaquette_is_unitary(self, hot_gauge):
        p = plaquette_field(hot_gauge.u, 1, 3)
        assert su3.unitarity_violation(p) < 1e-10

    def test_plaquette_gauge_invariance(self, hot_gauge):
        """Re tr P is invariant under U_mu(x) -> g(x) U_mu(x) g(x+mu)^dag."""
        u = hot_gauge.u
        g = su3.random_su3(hot_gauge.lattice.shape, rng=5)
        ug = np.empty_like(u)
        for mu in range(4):
            ug[mu] = su3.mul(su3.mul(g, u[mu]), su3.dag(shift(g, mu, 1)))
        assert average_plaquette(ug) == pytest.approx(average_plaquette(u), abs=1e-12)

    def test_plaquette_orientation_dagger(self, hot_gauge):
        """P_{nu mu} = P_{mu nu}^dag up to similarity: traces agree conj."""
        u = hot_gauge.u
        t1 = np.sum(su3.trace(plaquette_field(u, 0, 2)))
        t2 = np.sum(su3.trace(plaquette_field(u, 2, 0)))
        assert t1 == pytest.approx(np.conj(t2))

    def test_same_direction_rejected(self, cold_gauge):
        with pytest.raises(ValueError):
            plaquette_field(cold_gauge.u, 1, 1)


class TestStaple:
    def test_action_derivative_consistency(self, hot_gauge):
        """sum_x Re tr[U_mu(x) A_mu(x)] equals the sum of the traces of all
        plaquettes containing U_mu — the identity the HMC force uses; the
        loop engine's ``W = U A`` is that product."""
        u = hot_gauge.u
        w = planes.from_planes(LinkPlanes(u).staples(), u.shape[1:5])
        for mu in range(2):
            stap = staple_sum(u, mu)
            assert np.abs(w[mu] - su3.mul(u[mu], stap)).max() <= 1e-13
            lhs = float(np.sum(su3.re_trace(su3.mul(u[mu], stap))))
            rhs = 0.0
            for nu in range(4):
                if nu == mu:
                    continue
                rhs += 2.0 * float(np.sum(su3.re_trace(plaquette_field(u, mu, nu))))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_cold_staple(self, cold_gauge):
        stap = staple_sum(cold_gauge.u, 0)
        assert np.allclose(stap, 6.0 * su3.identity(stap.shape[:-2]))


class TestClover:
    def test_cold_clover_is_four(self, cold_gauge):
        q = clover_leaf_sum(cold_gauge.u, 0, 1)
        assert np.allclose(q, 4.0 * su3.identity(q.shape[:-2]))

    def test_clover_trace_gauge_invariant(self, hot_gauge):
        u = hot_gauge.u
        g = su3.random_su3(hot_gauge.lattice.shape, rng=6)
        ug = np.empty_like(u)
        for mu in range(4):
            ug[mu] = su3.mul(su3.mul(g, u[mu]), su3.dag(shift(g, mu, 1)))
        t1 = np.sum(su3.trace(clover_leaf_sum(u, 0, 3)))
        t2 = np.sum(su3.trace(clover_leaf_sum(ug, 0, 3)))
        assert t1 == pytest.approx(t2, abs=1e-9)

    def test_clover_same_direction_rejected(self, cold_gauge):
        with pytest.raises(ValueError):
            clover_leaf_sum(cold_gauge.u, 2, 2)


class TestRectangle:
    def test_cold_rectangle_is_identity(self, cold_gauge):
        r = rectangle_field(cold_gauge.u, 0, 1)
        assert np.allclose(r, su3.identity(r.shape[:-2]))

    def test_rectangle_unitary(self, hot_gauge):
        r = rectangle_field(hot_gauge.u, 2, 1)
        assert su3.unitarity_violation(r) < 1e-10

    def test_rectangle_gauge_invariance(self, hot_gauge):
        u = hot_gauge.u
        g = su3.random_su3(hot_gauge.lattice.shape, rng=7)
        ug = np.empty_like(u)
        for mu in range(4):
            ug[mu] = su3.mul(su3.mul(g, u[mu]), su3.dag(shift(g, mu, 1)))
        t1 = np.sum(su3.trace(rectangle_field(u, 1, 2)))
        t2 = np.sum(su3.trace(rectangle_field(ug, 1, 2)))
        assert t1 == pytest.approx(t2, abs=1e-9)

    def test_rectangle_same_direction_rejected(self, cold_gauge):
        with pytest.raises(ValueError):
            rectangle_field(cold_gauge.u, 0, 0)
