"""Point propagators as one block solve of the 12 point sources.

Each column of the block solve is the single-source solve of that column
byte for byte — on the even-odd Schur system (the default) and on the
plain normal equations — including when only some columns need a
refinement round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import EvenOddWilson, WilsonDirac
from repro.fields import GaugeField, point_source
from repro.lattice import Lattice4D
from repro.measure import (
    measure_spectrum,
    nucleon_correlator,
    pion_correlator,
    point_propagator,
    propagator_norm_check,
    rho_correlator,
)
from repro.measure.propagator import point_sources, propagator_from_solves
from repro.solvers import solve_wilson, solve_wilson_batch, solve_wilson_eo

LAT = Lattice4D((8, 4, 4, 4))


@pytest.fixture(scope="module")
def gauge() -> GaugeField:
    return GaugeField.warm(LAT, eps=0.4, rng=3)


def _same(got, want) -> None:
    assert got.x.tobytes() == want.x.tobytes()
    assert got.history == want.history
    assert (got.iterations, got.operator_applies) == (want.iterations, want.operator_applies)
    assert (got.residual, got.converged) == (want.residual, want.converged)
    assert got.guard_events == want.guard_events


@pytest.mark.parametrize("mass", [0.3, 0.1])
@pytest.mark.parametrize("use_even_odd", [True, False])
def test_point_propagator_is_the_sequential_solves(gauge, mass, use_even_odd):
    dirac = WilsonDirac(gauge, mass)
    eo = EvenOddWilson(gauge, mass)
    prop = point_propagator(dirac, tol=1e-9, use_even_odd=use_even_odd)
    for k, b in enumerate(point_sources(LAT, (0, 0, 0, 0))):
        if use_even_odd:
            res = solve_wilson_eo(eo, b, tol=1e-9, max_iter=20000)
        else:
            res = solve_wilson(dirac, b, tol=1e-9, max_iter=20000)
        assert prop[..., k // 3, k % 3].tobytes() == res.x.tobytes()


def test_batch_on_even_odd_is_solve_wilson_eo_per_column():
    gauge = GaugeField.hot(Lattice4D((4, 4, 4, 4)), rng=5)
    eo = EvenOddWilson(gauge, 0.2)
    rng = np.random.default_rng(7)
    B = rng.normal(size=(3,) + gauge.lattice.shape + (4, 3)) + 0j
    results = solve_wilson_batch(eo, B, tol=1e-8)
    for b, res in zip(B, results):
        _same(res, solve_wilson_eo(eo, b, tol=1e-8))
        assert res.label == "wilson_eo_block_cg"


def test_spectrum_smoke_refines_only_the_columns_short_of_tol():
    """The 4^4 spectrum smoke: three of the 12 columns need a second round,
    nine do not, and every correlator is the sequential loop's."""
    gauge = GaugeField.warm(Lattice4D((4, 4, 4, 4)), eps=0.3, rng=11)
    eo = EvenOddWilson(gauge, 0.3)
    B = point_sources(gauge.lattice, (0, 0, 0, 0))
    sequential = [solve_wilson_eo(eo, b, tol=1e-9, max_iter=20000) for b in B]
    assert len({res.iterations for res in sequential}) == 2
    for got, want in zip(solve_wilson_batch(eo, B, tol=1e-9, max_iter=20000), sequential):
        _same(got, want)
    spectrum = measure_spectrum(gauge, 0.3, tol=1e-9, fit_window=(0, 2))
    prop = propagator_from_solves(gauge.lattice, sequential)
    for name, contract in (
        ("pion", pion_correlator), ("rho", rho_correlator), ("nucleon", nucleon_correlator)
    ):
        assert spectrum.correlators[name].tobytes() == contract(prop).tobytes()


def test_norm_check_is_the_per_column_maximum(gauge):
    dirac = WilsonDirac(gauge, 0.3)
    rng = np.random.default_rng(9)
    shape = LAT.shape + (4, 3, 4, 3)
    prop = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coord = (1, 2, 0, 3)
    want = max(
        float(np.linalg.norm((point_source(LAT, coord, s0, c0)
                              - dirac.apply(prop[..., s0, c0])).ravel()))
        for s0 in range(4)
        for c0 in range(3)
    )
    assert propagator_norm_check(dirac, prop, coord) == want


def test_unconverged_column_names_its_spin_and_colour(gauge):
    dirac = WilsonDirac(gauge, 0.1)
    with pytest.raises(RuntimeError, match=r"\(s0=0, c0=0\)"):
        point_propagator(dirac, tol=1e-9, max_iter=3)
