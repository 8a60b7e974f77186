"""Tests for the decomposition + virtual MPI substrate.

The load-bearing property: a scatter -> halo-exchange -> interior-read cycle
must reproduce exactly what ``np.roll`` computes on the undecomposed array,
for every rank grid and boundary phase.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommTrace,
    Decomposition,
    HaloField,
    RankGrid,
    TorusTopology,
    VirtualComm,
    add_halo,
    face_bytes,
    halo_exchange,
    strip_halo,
)
from repro.lattice import Lattice4D, shift_with_phase

RNG = np.random.default_rng(404)


class TestRankGrid:
    def test_basics(self):
        g = RankGrid((2, 2, 1, 3))
        assert g.nranks == 12
        assert g.coord(0) == (0, 0, 0, 0)
        assert g.rank(g.coord(7)) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            RankGrid((2, 2, 2))
        with pytest.raises(ValueError):
            RankGrid((0, 1, 1, 1))
        with pytest.raises(ValueError):
            RankGrid((2, 2, 2, 2)).coord(16)

    def test_neighbor_wraps(self):
        g = RankGrid((2, 1, 1, 4))
        r = g.rank((1, 0, 0, 3))
        assert g.coord(g.neighbor(r, 3, +1)) == (1, 0, 0, 0)
        assert g.coord(g.neighbor(r, 0, +1)) == (0, 0, 0, 3)

    def test_crosses_boundary(self):
        g = RankGrid((2, 1, 1, 4))
        assert g.crosses_boundary(g.rank((1, 0, 0, 0)), 0, +1)
        assert not g.crosses_boundary(g.rank((0, 0, 0, 0)), 0, +1)
        assert g.crosses_boundary(g.rank((0, 0, 0, 0)), 0, -1)
        # Undecomposed axis: single rank always wraps.
        assert g.crosses_boundary(0, 1, +1)

    def test_decomposed_axes(self):
        assert RankGrid((2, 1, 1, 4)).decomposed_axes() == (0, 3)
        assert RankGrid((1, 1, 1, 1)).decomposed_axes() == ()

    def test_neighbor_involution(self):
        g = RankGrid((2, 3, 2, 2))
        for r in g.all_ranks():
            for mu in range(4):
                assert g.neighbor(g.neighbor(r, mu, +1), mu, -1) == r


class TestDecomposition:
    def test_scatter_gather_roundtrip_fermion(self):
        lat = Lattice4D((4, 6, 2, 4))
        dec = Decomposition(lat, RankGrid((2, 3, 1, 2)))
        psi = RNG.normal(size=lat.shape + (4, 3)) + 1j * RNG.normal(size=lat.shape + (4, 3))
        blocks = dec.scatter(psi)
        assert len(blocks) == 12
        assert blocks[0].shape == (2, 2, 2, 2, 4, 3)
        assert np.array_equal(dec.gather(blocks), psi)

    def test_scatter_gather_roundtrip_gauge(self):
        lat = Lattice4D((4, 4, 4, 4))
        dec = Decomposition(lat, RankGrid((2, 1, 2, 1)))
        u = RNG.normal(size=(4,) + lat.shape + (3, 3)) + 0j
        blocks = dec.scatter(u, site_axis_start=1)
        assert blocks[0].shape == (4, 2, 4, 2, 4, 3, 3)
        assert np.array_equal(dec.gather(blocks, site_axis_start=1), u)

    def test_block_contents_match_slices(self):
        lat = Lattice4D((4, 2, 2, 2))
        dec = Decomposition(lat, RankGrid((2, 1, 1, 1)))
        a = RNG.normal(size=lat.shape)
        blocks = dec.scatter(a)
        assert np.array_equal(blocks[0], a[:2])
        assert np.array_equal(blocks[1], a[2:])

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(Lattice4D((4, 4, 4, 4)), RankGrid((3, 1, 1, 1)))

    def test_shape_mismatch_rejected(self):
        lat = Lattice4D((4, 4, 4, 4))
        dec = Decomposition(lat, RankGrid((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            dec.scatter(np.zeros((2, 2, 2, 2)))

    def test_gather_wrong_count_rejected(self):
        lat = Lattice4D((4, 4, 4, 4))
        dec = Decomposition(lat, RankGrid((2, 1, 1, 1)))
        with pytest.raises(ValueError):
            dec.gather([np.zeros((2, 4, 4, 4))])

    def test_local_volume(self):
        dec = Decomposition(Lattice4D((8, 4, 4, 4)), RankGrid((4, 1, 2, 1)))
        assert dec.local_volume == 2 * 4 * 2 * 4


class TestHalo:
    def test_add_strip_roundtrip(self):
        a = RNG.normal(size=(2, 3, 4, 5, 4, 3))
        h = add_halo(a, width=1)
        assert h.data.shape == (4, 5, 6, 7, 4, 3)
        assert np.array_equal(strip_halo(h), a)
        assert np.array_equal(h.interior(), a)

    def test_add_halo_gauge_offset(self):
        u = RNG.normal(size=(4, 2, 2, 2, 2, 3, 3))
        h = add_halo(u, width=1, site_axis_start=1)
        assert h.data.shape == (4, 4, 4, 4, 4, 3, 3)
        assert np.array_equal(strip_halo(h), u)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            add_halo(np.zeros((2, 2, 2, 2)), width=0)

    def test_face_bytes(self):
        a = np.zeros((2, 3, 4, 5, 4, 3), dtype=np.complex128)
        h = add_halo(a, width=1)
        # Face orthogonal to axis 0: 3*4*5 sites * 12 dof * 16 bytes.
        assert face_bytes(h, 0) == 3 * 4 * 5 * 12 * 16

    @pytest.mark.parametrize(
        "grid_dims",
        [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1), (2, 1, 3, 2), (4, 1, 1, 2)],
    )
    def test_exchange_reproduces_roll(self, grid_dims):
        """Ghost cells after exchange == periodic neighbours of the global field."""
        lat = Lattice4D((4, 4, 6, 4))
        grid = RankGrid(grid_dims)
        dec = Decomposition(lat, grid)
        psi = RNG.normal(size=lat.shape + (4, 3)) + 1j * RNG.normal(size=lat.shape + (4, 3))
        halos = [add_halo(b) for b in dec.scatter(psi)]
        halo_exchange(halos, grid)

        for mu in range(4):
            fwd = shift_with_phase(psi, mu, +1)   # fwd[x] = psi[x + mu]
            bwd = shift_with_phase(psi, mu, -1)
            fwd_blocks = dec.scatter(fwd)
            bwd_blocks = dec.scatter(bwd)
            for r in grid.all_ranks():
                h = halos[r]
                w = h.width
                # Ghost slab at high side along mu holds psi(x+mu) for the
                # last interior slice: compare to fwd at that slice.
                idx_ghost = [slice(w, -w)] * 4
                idx_ghost[mu] = slice(-w, None)
                idx_last = [slice(None)] * 4
                idx_last[mu] = slice(-w, None)
                assert np.allclose(
                    h.data[tuple(idx_ghost)], fwd_blocks[r][tuple(idx_last)]
                ), (grid_dims, mu, r, "high")
                idx_ghost[mu] = slice(0, w)
                idx_first = [slice(None)] * 4
                idx_first[mu] = slice(0, w)
                assert np.allclose(
                    h.data[tuple(idx_ghost)], bwd_blocks[r][tuple(idx_first)]
                ), (grid_dims, mu, r, "low")

    def test_exchange_applies_boundary_phase(self):
        """Antiperiodic time BC: ghosts crossing the global T boundary flip sign."""
        lat = Lattice4D((4, 2, 2, 2))
        grid = RankGrid((2, 1, 1, 1))
        dec = Decomposition(lat, grid)
        psi = RNG.normal(size=lat.shape + (4, 3)) + 0j
        halos = [add_halo(b) for b in dec.scatter(psi)]
        phases = (-1.0, 1.0, 1.0, 1.0)
        halo_exchange(halos, grid, phases=phases)

        fwd = shift_with_phase(psi, 0, +1, phase=-1.0)
        fwd_blocks = dec.scatter(fwd)
        for r in grid.all_ranks():
            h = halos[r]
            got = h.data[(slice(-1, None), slice(1, -1), slice(1, -1), slice(1, -1))]
            want = fwd_blocks[r][-1:, :, :, :]
            assert np.allclose(got, want), r

    def test_exchange_counts_messages(self):
        lat = Lattice4D((4, 4, 4, 4))
        grid = RankGrid((2, 2, 1, 1))
        dec = Decomposition(lat, grid)
        trace = CommTrace()
        halos = [add_halo(b) for b in dec.scatter(np.zeros(lat.shape + (4, 3), dtype=complex))]
        halo_exchange(halos, grid, trace=trace)
        # 4 ranks x 2 decomposed axes x 2 directions = 16 messages; the two
        # undecomposed axes wrap locally and are not messages.
        assert trace.message_count() == 16
        assert trace.total_halo_bytes() == 16 * face_bytes(halos[0], 0)

    @pytest.mark.parametrize("grid_dims", [(2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1)])
    def test_per_axis_widths_exchange_the_split_faces_only(self, grid_dims):
        """Ghosts only along the split axes: those shells hold what an every-axis
        block's hold, the face bytes and messages are the same, and a width of
        one int or four equal ints is one layout."""
        lat = Lattice4D((4, 4, 6, 4))
        grid = RankGrid(grid_dims)
        dec = Decomposition(lat, grid)
        widths = tuple(int(n > 1) for n in grid_dims)
        psi = RNG.normal(size=lat.shape + (4, 3)) + 1j * RNG.normal(size=lat.shape + (4, 3))
        every, split = CommTrace(), CommTrace()
        full = [add_halo(b) for b in dec.scatter(psi)]
        halo_exchange(full, grid, trace=every, phases=(-1.0, 1.0, 1.0, 1.0))
        part = [add_halo(b, width=widths) for b in dec.scatter(psi)]
        halo_exchange(part, grid, trace=split, phases=(-1.0, 1.0, 1.0, 1.0))
        assert split.events == every.events
        for f, h in zip(full, part):
            assert h.data.shape == tuple(
                n + 2 * w for n, w in zip(dec.local_shape, widths)) + (4, 3)
            assert h.interior_shape == dec.local_shape
            assert np.array_equal(h.interior(), f.interior())
            # The split axes' shells, with every other axis at interior extents.
            inner = tuple(slice(1, -1) if w == 0 else slice(None) for w in widths)
            assert np.array_equal(h.data, f.data[inner])
            assert all(face_bytes(h, mu) == face_bytes(f, mu) for mu in range(4) if widths[mu])
        four = add_halo(psi, width=(1, 1, 1, 1))
        assert np.array_equal(four.data, add_halo(psi, width=1).data)

    def test_exchange_rejects_wrong_count(self):
        grid = RankGrid((2, 1, 1, 1))
        with pytest.raises(ValueError):
            halo_exchange([add_halo(np.zeros((2, 2, 2, 2)))], grid)


class TestVirtualComm:
    def test_allreduce_matches_global_sum(self):
        comm = VirtualComm(RankGrid((2, 2, 1, 1)))
        partials = [1.5, 2.5, -1.0, 3.0]
        assert comm.allreduce_sum(partials) == pytest.approx(6.0)
        assert len(comm.trace.collective_events()) == 1

    def test_allreduce_complex(self):
        comm = VirtualComm(RankGrid((1, 1, 1, 2)))
        assert comm.allreduce_sum([1 + 1j, 2 - 3j]) == 3 - 2j

    def test_allreduce_validates(self):
        comm = VirtualComm(RankGrid((2, 1, 1, 1)))
        with pytest.raises(ValueError):
            comm.allreduce_sum([1.0])

    def test_record_compute(self):
        comm = VirtualComm(RankGrid((2, 1, 1, 1)))
        comm.record_compute("dslash", 1000)
        assert comm.trace.total_flops() == 2000
        assert comm.trace.flops_per_rank() == 1000


class TestTrace:
    def test_aggregates(self):
        t = CommTrace()
        t.record_halo(0, 0, 1, 100)
        t.record_halo(0, 1, -1, 50)
        t.record_halo(1, 0, 1, 100)
        assert t.total_halo_bytes() == 250
        assert t.halo_bytes_per_rank(0) == 150
        assert t.max_halo_bytes_per_rank() == 150
        assert t.messages_per_rank(1) == 1
        t.clear()
        assert t.message_count() == 0

    def test_disabled_trace_records_nothing(self):
        t = CommTrace(enabled=False)
        t.record_halo(0, 0, 1, 100)
        t.record_collective("allreduce", 8, 4)
        t.record_compute("dslash", 10, 4)
        assert t.events == []

    def test_empty_max(self):
        assert CommTrace().max_halo_bytes_per_rank() == 0


class TestTorus:
    def test_hop_distance_wraps(self):
        t = TorusTopology((4, 4))
        a = int(np.ravel_multi_index((0, 0), (4, 4)))
        b = int(np.ravel_multi_index((3, 0), (4, 4)))
        assert t.hop_distance(a, b) == 1  # wraps around
        c = int(np.ravel_multi_index((2, 2), (4, 4)))
        assert t.hop_distance(a, c) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4))

    def test_embed_identity_when_equal_size(self):
        grid = RankGrid((2, 2, 2, 2))
        torus = TorusTopology((2, 2, 2, 2))
        mapping = torus.embed_rank_grid(grid)
        assert sorted(mapping.values()) == list(range(16))

    def test_neighbor_hops_bounded(self):
        grid = RankGrid((2, 2, 2, 2))
        torus = TorusTopology((4, 2, 2))
        hops = torus.max_neighbor_hops(grid)
        assert 1 <= hops <= sum(d // 2 for d in torus.dims)

    def test_single_rank_no_hops(self):
        grid = RankGrid((1, 1, 1, 1))
        torus = TorusTopology((4, 4, 4, 4, 2))
        assert torus.max_neighbor_hops(grid) == 0

    def test_bisection(self):
        assert TorusTopology((4, 4, 4)).bisection_links() == 2 * 16
        assert TorusTopology((1,)).bisection_links() == 0

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_hop_distance_symmetric_property(self, na, nb):
        t = TorusTopology((na, nb))
        a, b = 0, t.nnodes - 1
        assert t.hop_distance(a, b) == t.hop_distance(b, a)
        assert t.hop_distance(a, a) == 0
