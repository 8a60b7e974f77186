"""Lattice geometry, shifts and checkerboard tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import (
    Lattice4D,
    checkerboard_masks,
    mask_field,
    parity_mask,
    shift,
    shift_with_phase,
    site_parity,
)

RNG = np.random.default_rng(31)


class TestGeometry:
    def test_basic_metrics(self):
        lat = Lattice4D((8, 6, 4, 2))
        assert (lat.nt, lat.nz, lat.ny, lat.nx) == (8, 6, 4, 2)
        assert lat.volume == 8 * 6 * 4 * 2
        assert lat.spatial_volume == 6 * 4 * 2
        assert str(lat) == "8x6x4x2"

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Lattice4D((4, 4, 4))
        with pytest.raises(ValueError):
            Lattice4D((4, 0, 4, 4))

    def test_coords_shape_and_values(self):
        lat = Lattice4D((2, 3, 4, 5))
        c = lat.coords
        assert c.shape == (2, 3, 4, 5, 4)
        assert c[1, 2, 3, 4].tolist() == [1, 2, 3, 4]

    def test_site_index_wraps(self):
        lat = Lattice4D((4, 4, 4, 4))
        assert lat.site_index((0, 0, 0, 0)) == 0
        assert lat.site_index((4, 0, 0, 0)) == lat.site_index((0, 0, 0, 0))

    def test_neighbor_periodic(self):
        lat = Lattice4D((4, 4, 4, 4))
        assert lat.neighbor((3, 0, 0, 0), 0) == (0, 0, 0, 0)
        assert lat.neighbor((0, 0, 0, 0), 2, -1) == (0, 0, 3, 0)

    def test_decomposition_helpers(self):
        lat = Lattice4D((8, 8, 4, 4))
        assert lat.divisible_by((2, 2, 1, 1))
        assert lat.local_shape((2, 2, 1, 1)) == (4, 4, 4, 4)
        assert not lat.divisible_by((3, 1, 1, 1))
        with pytest.raises(ValueError):
            lat.local_shape((3, 1, 1, 1))

    def test_surface_sites(self):
        lat = Lattice4D((8, 6, 4, 2))
        assert lat.surface_sites(0) == 6 * 4 * 2
        assert lat.surface_sites(3) == 8 * 6 * 4

    def test_frozen(self):
        lat = Lattice4D((4, 4, 4, 4))
        with pytest.raises(Exception):
            lat.shape = (2, 2, 2, 2)


class TestShift:
    def test_forward_gather(self):
        a = np.arange(6.0)
        # out[x] = a[x+1]
        assert np.array_equal(shift(a, 0, 1), np.array([1, 2, 3, 4, 5, 0.0]))

    def test_backward_gather(self):
        a = np.arange(6.0)
        assert np.array_equal(shift(a, 0, -1), np.array([5, 0, 1, 2, 3, 4.0]))

    def test_shift_roundtrip(self):
        a = RNG.normal(size=(4, 3, 2, 5))
        for mu in range(4):
            assert np.array_equal(shift(shift(a, mu, 1), mu, -1), a)

    def test_phase_applied_only_to_wrapped_slab_forward(self):
        a = np.arange(4.0)
        out = shift_with_phase(a, 0, 1, phase=-1.0)
        # out[3] reads a[0] across the boundary -> phase applied there only.
        assert np.array_equal(out, np.array([1, 2, 3, -0.0]))
        a2 = np.arange(1.0, 5.0)
        out2 = shift_with_phase(a2, 0, 1, phase=-1.0)
        assert np.array_equal(out2, np.array([2, 3, 4, -1.0]))

    def test_phase_applied_only_to_wrapped_slab_backward(self):
        a = np.arange(1.0, 5.0)
        out = shift_with_phase(a, 0, -1, phase=-1.0)
        assert np.array_equal(out, np.array([-4.0, 1, 2, 3]))

    def test_phase_one_is_plain_shift(self):
        a = RNG.normal(size=(4, 4, 4, 4))
        assert np.array_equal(shift_with_phase(a, 2, 1, 1.0), shift(a, 2, 1))

    def test_antiperiodic_double_wrap_is_identity_with_sign(self):
        a = RNG.normal(size=(4,))
        out = a.copy()
        for _ in range(4):
            out = shift_with_phase(out, 0, 1, phase=-1.0)
        assert np.allclose(out, -a)

    def test_complex_phase(self):
        a = np.ones(4, dtype=np.complex128)
        out = shift_with_phase(a, 0, 1, phase=1j)
        assert out[3] == 1j and np.all(out[:3] == 1.0)

    @pytest.mark.parametrize(
        "shape",
        [(4, 3, 2, 5, 4, 3), (2, 4, 3, 2, 5, 4, 3), (4, 4, 3, 2, 5, 3, 3)],
        ids=["fermion", "domain-wall", "links"],
    )
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("phase", [1.0, -1.0, np.exp(0.7j)], ids=["1", "-1", "twist"])
    @pytest.mark.parametrize("dist", [1, -1, 2, -2])
    def test_bytes_equal_np_roll(self, shape, dist, phase, dtype):
        """The flat-copy shift writes what ``np.roll`` plus a phase on the
        wrapped slab writes, byte for byte, along every axis of the fields
        the kernels shift: a fermion (site axes from 0), a domain-wall
        field and a link field (site axes from 1).  A non-contiguous view
        gives the same bytes as its copy.

        The ``reference`` Dslash kernel shifts through the same
        ``shift_into`` as the ``fused`` one, so this ``np.roll`` oracle is
        what keeps the shift itself checked on its own."""

        def rolled(a, mu):
            out = np.roll(a, -dist, axis=mu)
            if phase != 1.0:
                n, edge = a.shape[mu], [slice(None)] * a.ndim
                edge[mu] = slice(n - dist, n) if dist > 0 else slice(0, -dist)
                out[tuple(edge)] = out[tuple(edge)] * phase
            return out

        a = (RNG.normal(size=shape) + 1j * RNG.normal(size=shape)).astype(dtype)
        for field in (a, a[:, ::-1]):
            for mu in range(a.ndim):
                want = rolled(field, mu).tobytes()
                assert shift_with_phase(field, mu, dist, phase).tobytes() == want
                if phase == 1.0:
                    assert shift(field, mu, dist).tobytes() == want


class TestCheckerboard:
    def test_parity_counts_balanced(self):
        lat = Lattice4D((4, 4, 4, 4))
        even, odd = checkerboard_masks(lat)
        assert even.sum() == odd.sum() == lat.volume // 2
        assert not np.any(even & odd)
        assert np.all(even | odd)

    def test_neighbors_have_opposite_parity(self):
        lat = Lattice4D((4, 6, 2, 8))
        p = site_parity(lat)
        for mu in range(4):
            assert np.all(shift(p, mu, 1) != p)

    def test_parity_mask_validates(self):
        lat = Lattice4D((2, 2, 2, 2))
        with pytest.raises(ValueError):
            parity_mask(lat, 2)

    def test_mask_field_zeroes_complement(self):
        lat = Lattice4D((2, 2, 2, 2))
        even, odd = checkerboard_masks(lat)
        psi = RNG.normal(size=lat.shape + (4, 3)) + 0j
        pe = mask_field(psi, even)
        assert np.allclose(pe[odd], 0.0)
        assert np.allclose(pe[even], psi[even])
        assert pe.dtype == psi.dtype

    def test_mask_decomposition_is_partition(self):
        lat = Lattice4D((2, 4, 2, 4))
        even, odd = checkerboard_masks(lat)
        psi = RNG.normal(size=lat.shape + (4, 3))
        assert np.allclose(mask_field(psi, even) + mask_field(psi, odd), psi)

    @given(
        st.tuples(
            st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_definition_property(self, shape):
        lat = Lattice4D(shape)
        p = site_parity(lat)
        c = lat.coords
        assert np.array_equal(p, np.sum(c, axis=-1) % 2)
