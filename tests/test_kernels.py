"""Tier-1 tests for repro.kernels: the fused Dslash must match the
shift-and-einsum reference bit-for-bit ("two Dslash paths, one truth"), and the
``apply_into`` protocol must be value-identical to ``apply`` everywhere.
"""

from __future__ import annotations

import itertools
import zlib
from functools import lru_cache

import numpy as np
import pytest

from repro.comm import HaloField, add_halo, make_comm
from repro.comm.halo import halo_exchange
from repro.dirac.decomposed import DecomposedWilsonDirac, hopping_term_halo
from repro.dirac.dwf import DomainWallDirac
from repro.dirac.eo import EvenOddWilson
from repro.dirac.clover import CloverDirac
from repro.dirac.hopping import DEFAULT_FERMION_PHASES, PERIODIC_PHASES, hopping_term
from repro.dirac.operator import MatrixOperator, NormalOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.gammas import apply_gamma5, spin_project, spin_reconstruct
from repro.kernels import (
    DEFAULT_KERNEL,
    FusedHopping,
    HaloStencil,
    KERNEL_ENV_VAR,
    Workspace,
    available_kernels,
    full_box,
    make_kernel,
    resolve_kernel_name,
    shift_into,
    split_boxes,
)
from repro.kernels.color import color_mul_planes_into
from repro.kernels import fused
from repro.kernels.fused import link_planes, load_planes, plan, store_planes, ufunc_rows
from repro.kernels.halo import rank_link_reals, rank_links, write_rank_links
from repro.kernels.shifts import parity_site_tables
from repro.kernels.workspace import thread_workspace
from repro.kernels.spin import project_planes_into, reconstruct_planes_accumulate
from repro.lattice import Lattice4D, shift_with_phase
from repro.util import paired_ratio

TWISTED_PHASES = (np.exp(0.3j), 1.0, np.exp(-0.2j), 1.0)

#: A Wilson diagonal ``m + 4`` (m = 0.1), and the kernel forms M, M^dag, M^dag M.
WILSON_DIAG = 4.1
WILSON_FORMS = ({}, {"dagger": True}, {"normal": True})


def _rand_field(rng, shape, dtype):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


# -- Workspace -----------------------------------------------------------------


class TestWorkspace:
    def test_same_key_reuses_buffer(self):
        """On an arena of its own and on the thread's, cleared."""
        thread_workspace().clear()
        for ws in (Workspace(), thread_workspace()):
            a = ws.get((4, 3), np.complex128)
            b = ws.get((4, 3), np.complex128)
            assert a is b

    def test_narrower_request_is_an_aligned_view_of_the_widest(self):
        """A width-3 or width-1 block of a slot is the start of its width-4
        buffer, on the same cache line; the arena holds that buffer only."""
        ws = Workspace()
        wide = ws.get((2, 4, 4, 3, 8), np.float64, "planes")
        for width in (3, 1):
            narrow = ws.get((2, 4, width, 3, 8), np.float64, "planes")
            assert narrow.shape == (2, 4, width, 3, 8) and narrow.flags.c_contiguous
            assert narrow.ctypes.data == wide.ctypes.data and narrow.ctypes.data % 64 == 0
        assert len(ws) == 3 and ws.nbytes == wide.nbytes

    def test_growth_repoints_the_cached_views(self):
        """A wider request grows the slot's buffer; every shape asked of it
        before is then a view of the new one, still one dict lookup away."""
        ws = Workspace()
        narrow = ws.get((1, 3, 8), np.float64, "planes")
        wide = ws.get((4, 3, 8), np.float64, "planes")
        assert ws.nbytes == wide.nbytes
        again = ws.get((1, 3, 8), np.float64, "planes")
        assert again is not narrow and again.ctypes.data == wide.ctypes.data
        assert ws.get((1, 3, 8), np.float64, "planes") is again
        again[...] = 5.0
        assert np.all(wide[:1] == 5.0)

    def test_two_slots_never_overlap(self):
        """Each (slot, dtype) has a buffer of its own, through every growth."""
        ws = Workspace()
        keys = [
            (shape, dtype, slot)
            for shape in [(8,), (3, 5), (64,), (1,), (2, 40)]
            for dtype in (np.float64, np.complex64)
            for slot in ("a", "b", 0)
        ]
        for key in keys:
            ws.get(*key)
        views = [(key, ws.get(*key)) for key in keys]
        for (k1, v1), (k2, v2) in itertools.combinations(views, 2):
            if (k1[1], k1[2]) != (k2[1], k2[2]):
                assert not np.shares_memory(v1, v2), (k1, k2)

    def test_distinct_slots_and_shapes(self):
        ws = Workspace()
        a = ws.get((4, 3), np.complex128, "x")
        b = ws.get((4, 3), np.complex128, "y")
        c = ws.get((3, 4), np.complex128, "x")
        d = ws.get((4, 3), np.complex64, "x")
        assert len({id(a), id(b), id(c), id(d)}) == 4
        assert len(ws) == 4

    def test_zeros_and_nbytes_and_clear(self):
        ws = Workspace()
        a = ws.get((8,), np.complex128)
        a[:] = 7.0
        z = ws.zeros((8,), np.complex128)
        assert z is a and np.all(z == 0)
        assert ws.nbytes == 8 * 16
        ws.clear()
        assert len(ws) == 0 and ws.nbytes == 0

    def test_buffers_start_on_a_cache_line(self):
        """Where ``np.empty`` puts a buffer within a line depends on what
        the process allocated before; plane rows that straddle lines cost
        the colour multiply up to 1.8x."""
        ws = Workspace()
        pad = []
        for i, (shape, dtype) in enumerate(
            [((3, 5, 7), np.float64), ((2, 4, 1, 3, 511), np.float32), ((1,), np.complex128)] * 3
        ):
            pad.append(np.empty(17 * i + 1))  # walk the heap between requests
            buf = ws.get(shape, dtype, i)
            assert buf.ctypes.data % 64 == 0
            assert buf.shape == shape and buf.dtype == dtype
            assert buf.flags.c_contiguous and buf.flags.writeable


# -- shift_into ----------------------------------------------------------------


@pytest.mark.parametrize("extents", [(2, 3, 4, 5), (4, 4, 4, 4)])
@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("dist", [+1, -1])
@pytest.mark.parametrize("phase", [1.0, -1.0, np.exp(0.3j)])
def test_shift_into_matches_shift_with_phase(extents, axis, dist, phase):
    """``shift_into`` writes into the caller's buffer what
    ``shift_with_phase`` returns; both are checked against ``np.roll`` in
    ``tests/test_lattice.py``."""
    rng = np.random.default_rng(5)
    a = _rand_field(rng, extents + (4, 3), np.complex128)
    ref = shift_with_phase(a, axis, dist, phase)
    out = np.empty_like(a)
    assert shift_into(out, a, axis, dist, phase) is out
    assert np.array_equal(ref, out)


def test_shift_into_rejects_aliasing():
    a = np.zeros((4, 4, 4, 4, 4, 3), dtype=np.complex128)
    with pytest.raises(ValueError):
        shift_into(a, a, 0, 1)


# -- spin / colour primitives --------------------------------------------------


def _planes(field):
    """Site-minor real planes of an (rhs, *sites, spin, colour) complex field."""
    spin, colour = field.shape[-2:]
    planes = np.empty((2, spin, field.shape[0], colour) + field.shape[1:-2], field.real.dtype)
    load_planes(planes, field)
    return planes


def _field(planes, dtype):
    """Inverse of :func:`_planes`."""
    rhs, sites, spin, colour = planes.shape[2], planes.shape[4:], planes.shape[1], planes.shape[3]
    field = np.empty((rhs,) + sites + (spin, colour), dtype)
    store_planes(field, planes)
    return field


@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("s", [+1, -1])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_project_reconstruct_match_gammas(mu, s, dtype):
    rng = np.random.default_rng(6)
    psi = _rand_field(rng, (3, 4, 5, 2, 4, 3), dtype)
    ref_h = spin_project(psi, mu, s)
    h = np.empty((2, 2, 3, 3, 4, 5, 2), dtype=psi.real.dtype)
    project_planes_into(h, _planes(psi), mu, s)
    assert np.array_equal(ref_h, _field(h, dtype))

    out = _rand_field(rng, psi.shape, dtype)
    expect = out + spin_reconstruct(ref_h, mu, s)
    acc = _planes(out)
    reconstruct_planes_accumulate(acc, h, mu, s)
    assert np.array_equal(expect, _field(acc, dtype))


def test_color_mul_planes_matches_einsum():
    rng = np.random.default_rng(7)
    u = _rand_field(rng, (2, 4, 4, 4, 4, 3, 3), np.complex128)
    h = _rand_field(rng, (2, 5, 4, 4, 4, 4, 2, 3), np.complex128)  # (direction, rhs, sites...)
    h_planes = np.stack([_planes(h[g]) for g in range(2)]).reshape(2, 2, 2, 5, 3, -1)
    out = np.empty_like(h_planes)
    prod = np.empty((2, 2) + h_planes.shape[1:])
    for dagger, link, spec in (
        (False, u, "g...ab,gr...sb->gr...sa"),
        (True, np.conj(u), "g...ba,gr...sb->gr...sa"),
    ):
        color_mul_planes_into(out, link_planes(u), h_planes, dagger, prod)
        got = [_field(out[g].reshape((2, 2, 5, 3, 4, 4, 4, 4)), h.dtype) for g in range(2)]
        assert np.array_equal(np.einsum(spec, link, h), np.stack(got))


@pytest.mark.parametrize("axis,dist", [(0, +1), (2, -1), (3, +1)])
def test_shift_into_takes_the_wrapped_slab_from_outside(axis, dist):
    """With ``wrapped`` the slab that crossed comes from the caller, the
    rest from ``a`` — the rank's shift (ghosts in place of the far face)."""
    rng = np.random.default_rng(8)
    a = _rand_field(rng, (3, 4, 5, 2, 3), np.complex128)
    slab = list(a.shape)
    slab[axis] = 1
    ghost = _rand_field(rng, tuple(slab), np.complex128)
    out = np.empty_like(a)
    shift_into(out, a, axis, dist, wrapped=ghost)
    parts = [a, ghost] if dist > 0 else [ghost, a]
    lo = 1 if dist > 0 else 0
    want = np.concatenate(parts, axis=axis).take(range(lo, lo + a.shape[axis]), axis)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (4, 2, 6, 2), (2, 4, 6, 16)])
def test_parity_site_tables(dims):
    """The two parities partition the lattice in C order of a (T, Z, Y, X/2)
    lattice, and the ``rows`` tables of the X shift name the full lattice's
    X neighbours."""
    sites, x_rows = parity_site_tables(dims)
    volume = int(np.prod(dims))
    parity = np.indices(dims).sum(axis=0).reshape(-1) % 2
    assert sorted(np.concatenate(sites)) == list(range(volume))
    coords = np.array(np.unravel_index(np.arange(volume), dims))
    for p in (0, 1):
        assert np.all(parity[sites[p]] == p)
        t, z, y, x = coords[:, sites[p]]
        half = np.ravel_multi_index((t, z, y, x // 2), dims[:3] + (dims[3] // 2,))
        assert np.array_equal(half, np.arange(volume // 2))
        for (source, crossed), step in zip(x_rows[p], (+1, -1)):
            neighbour = np.ravel_multi_index((t, z, y, (x + step) % dims[3]), dims)
            assert np.array_equal(sites[1 - p][source], neighbour)
            wrapped = (x + step) // dims[3] != 0
            assert np.array_equal(np.flatnonzero(wrapped) // (dims[3] // 2),
                                  np.flatnonzero(crossed.reshape(-1)))
    with pytest.raises(ValueError, match="even extents"):
        parity_site_tables((4, 4, 3, 4))


@pytest.mark.parametrize("dist", [+1, -1])
@pytest.mark.parametrize("phase", [1.0, -1.0])
def test_shift_into_rows_shift_or_copy(dist, phase):
    """With ``rows`` every other row shifts (wrapped, phased) and the rest
    copy: the X shift between the half lattices of the two parities."""
    rng = np.random.default_rng(9)
    dims = (2, 4, 2, 6)
    a = rng.standard_normal((5,) + dims[:3] + (dims[3] // 2,))
    out = np.empty_like(a)
    _, x_rows = parity_site_tables(dims)
    shift_into(out, a, 4, dist, phase, rows=x_rows[0][0 if dist > 0 else 1])
    moves = (np.indices(dims[:3]).sum(axis=0) % 2 == 1) == (dist > 0)
    shifted = shift_with_phase(a, 4, dist, phase).real
    assert np.array_equal(out, np.where(moves[..., None], shifted, a))


# -- fused kernel == reference, bit for bit ------------------------------------


def _passes(kernel: FusedHopping) -> set[str]:
    """Which of the kernel's two passes over the eight terms have run."""
    slots = kernel.workspace.slots()
    return {name for name, slot in (("stacked", "hop.stack.g"), ("per-direction", "hop.fwd"))
            if slot in slots}


@pytest.mark.parametrize(
    "extents,site_axis_start,nrhs,expect",
    [
        pytest.param((4, 4, 4, 4), 0, None, None, id="extents0-0"),
        # odd extents: wrap slabs of every size
        pytest.param((3, 4, 5, 6), 0, None, None, id="extents1-0"),
        # extent-2 axis: forward and backward neighbour coincide
        pytest.param((2, 3, 4, 5), 0, None, None, id="extents2-0"),
        # 5-D domain-wall layout
        pytest.param((5, 3, 4, 5, 6), 1, None, None, id="extents3-1"),
        # extent 2 on two axes at once, the minor-most included
        pytest.param((3, 2, 5, 2), 0, None, None, id="extents4-0"),
        pytest.param((2, 3, 2, 4, 3), 1, None, None, id="extents5-1"),
        # multi-RHS blocks: every column against the reference
        pytest.param((2, 3, 4, 5), 0, 1, None, id="nrhs1"),
        pytest.param((2, 3, 4, 5), 0, 2, None, id="nrhs2"),
        pytest.param((2, 3, 4, 5), 0, 3, None, id="nrhs3"),
        pytest.param((3, 2, 5, 2), 0, 5, None, id="nrhs5"),
        pytest.param((2, 3, 4, 5), 0, 12, None, id="nrhs12"),
        # Each side of plan's choice between the two passes, in both precisions.
        pytest.param((4, 2, 6, 4), 0, None, "stacked", id="stacked"),
        pytest.param((8, 4, 4, 4), 0, 4, "per-direction", id="per-direction"),
        # Two T tiles in fp64: the Wilson forms compose around the complex hop.
        pytest.param((9, 8, 8, 8), 0, 1, None, id="two-tiles"),
        # Tiles that carry slabs to each other: four one-slab tiles in fp64
        # (two two-slab ones in fp32), five (2 + 2 + 1 in fp32), and in fp64
        # 2 + 1 on each of three rhs and on each s-slice of a 5-D field.
        pytest.param((4, 16, 16, 16), 0, None, None, id="four-tiles"),
        pytest.param((5, 16, 16, 16), 0, None, None, id="ragged-tiles"),
        pytest.param((3, 8, 16, 16), 0, 3, None, id="tiles-nrhs3"),
        pytest.param((2, 3, 8, 16, 16), 1, None, None, id="tiles-5d"),
    ],
)
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
@pytest.mark.parametrize(
    "phases", [DEFAULT_FERMION_PHASES, PERIODIC_PHASES, TWISTED_PHASES],
    ids=["antiperiodic", "periodic", "twisted"],
)
def test_fused_bitwise_equals_reference(extents, site_axis_start, nrhs, expect, dtype, phases):
    """Bytes, not values: ``np.array_equal`` takes -0.0 for +0.0.  The
    all-zero source makes every colour product a signed zero, and a point
    source leaves zeros on every other site.

    The Wilson forms (M, M^dag, and M^dag M on the batched entry) equal the
    reference kernel's on every input, and on the random one also the
    complex-arithmetic composition ``diag x - hop(x) / 2``, gamma5 a
    complex ``*= -1``, which differs only in the signs of zeros.
    """
    rng = np.random.default_rng(42)
    dims4 = extents[site_axis_start : site_axis_start + 4]
    u = _rand_field(rng, (4,) + dims4 + (3, 3), dtype)
    kernel = FusedHopping()
    kernel.workspace.clear()  # the thread's arena: only this test's slots
    reference = make_kernel("reference")

    def textbook(x: np.ndarray, dagger: bool = False, normal: bool = False) -> np.ndarray:
        def wilson(y):
            return WILSON_DIAG * y - 0.5 * hopping_term(u, y, phases, site_axis_start)

        if normal:
            return apply_gamma5(wilson(apply_gamma5(wilson(x))))
        return apply_gamma5(wilson(apply_gamma5(x))) if dagger else wilson(x)

    if nrhs is not None:
        X = _rand_field(rng, (nrhs,) + extents + (4, 3), dtype)
        point = np.zeros_like(X)
        for i in range(nrhs):
            point[i, 0, 0, 0, 0, i % 4, i % 3] = 1
        for block in (X, np.zeros_like(X), point):
            ref = np.stack([hopping_term(u, x, phases) for x in block])
            got = kernel.apply_batch_into(u, block, phases)
            assert got.dtype == ref.dtype
            assert ref.tobytes() == got.tobytes()
            for form in WILSON_FORMS:
                want = reference.apply_batch_into(u, block, phases, diag=WILSON_DIAG, **form)
                got = kernel.apply_batch_into(u, block, phases, diag=WILSON_DIAG, **form)
                assert want.tobytes() == got.tobytes(), form
                if block is X:
                    assert np.stack([textbook(x, **form) for x in X]).tobytes() == got.tobytes()
    else:
        psi = _rand_field(rng, extents + (4, 3), dtype)
        point = np.zeros_like(psi)
        point[(0,) * (len(extents) + 2)] = 1
        for x in (psi, np.zeros_like(psi), point):
            ref = hopping_term(u, x, phases, site_axis_start)
            got = kernel(u, x, phases, site_axis_start)
            assert got.dtype == ref.dtype
            assert ref.tobytes() == got.tobytes()

            # Warm-workspace repeat into a caller buffer must be identical too.
            out = np.empty_like(x)
            kernel(u, x, phases, site_axis_start, out=out)
            assert ref.tobytes() == out.tobytes()
            for form in WILSON_FORMS[:2]:
                want = reference(u, x, phases, site_axis_start, diag=WILSON_DIAG, **form)
                got = kernel(u, x, phases, site_axis_start, out=out, diag=WILSON_DIAG, **form)
                assert want.tobytes() == got.tobytes(), form
                if x is psi:
                    assert textbook(x, **form).tobytes() == got.tobytes()
    if expect is not None:
        assert _passes(kernel) == {expect}
    # M^dag and M^dag M run on planes when the hop is one tile with +-1 phases,
    # else composed around M through complex workspace arrays.
    width = extents[0] if site_axis_start else nrhs or 1
    one_tile = plan(dims4, width, np.dtype(dtype).itemsize // 2)[2] == dims4[0]
    composed = not one_tile or phases == TWISTED_PHASES
    assert any(slot.startswith("form.") for slot, _ in kernel.workspace._buffers) == composed


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
def test_fused_on_views_and_masked_fields(dtype):
    """Strided ``psi``/``out`` views, block columns and parity-masked
    fields (exact zeros on half the sites) all match the reference."""
    rng = np.random.default_rng(43)
    dims = (2, 3, 4, 5)
    u = _rand_field(rng, (4,) + dims + (3, 3), dtype)
    kernel = FusedHopping()
    # Every other time slice of a wider buffer, on both sides.
    wide_in = _rand_field(rng, (4,) + dims[1:] + (4, 3), dtype)
    wide_out = np.full_like(wide_in, np.nan)
    psi, out = wide_in[::2], wide_out[::2]
    assert not psi.flags.c_contiguous and not out.flags.c_contiguous
    ref = hopping_term(u, psi, DEFAULT_FERMION_PHASES)
    assert kernel(u, psi, DEFAULT_FERMION_PHASES, out=out) is out
    assert np.array_equal(ref, out)
    assert np.all(np.isnan(wide_out[1::2]))  # the gaps were not written
    # One column of a block into one column of another.
    X = _rand_field(rng, (3,) + dims + (4, 3), dtype)
    O = np.empty_like(X)
    kernel(u, X[1], TWISTED_PHASES, out=O[2])
    assert np.array_equal(hopping_term(u, X[1], TWISTED_PHASES), O[2])
    # Parity-masked copies: the even-odd operators feed these.
    even = (np.indices(dims).sum(axis=0) % 2 == 0)[..., None, None]
    for mask in (even, ~even):
        masked = X[0] * mask
        assert np.array_equal(
            hopping_term(u, masked, DEFAULT_FERMION_PHASES),
            kernel(u, masked, DEFAULT_FERMION_PHASES),
        )


def test_fused_rejects_output_aliasing():
    rng = np.random.default_rng(3)
    u = _rand_field(rng, (4, 4, 4, 4, 4, 3, 3), np.complex128)
    psi = _rand_field(rng, (4, 4, 4, 4, 4, 3), np.complex128)
    with pytest.raises(ValueError):
        FusedHopping()(u, psi, DEFAULT_FERMION_PHASES, out=psi)
    X = psi[None]
    with pytest.raises(ValueError):
        FusedHopping().apply_batch_into(u, X, DEFAULT_FERMION_PHASES, out=X)


def test_fused_rejects_mixed_precision():
    """A complex64 field against complex128 links would upcast every
    product; the kernel refuses instead (cast the operator with astype)."""
    rng = np.random.default_rng(3)
    u = _rand_field(rng, (4, 4, 4, 4, 4, 3, 3), np.complex128)
    psi = _rand_field(rng, (4, 4, 4, 4, 4, 3), np.complex64)
    with pytest.raises(TypeError, match="one precision"):
        FusedHopping()(u, psi, DEFAULT_FERMION_PHASES)
    with pytest.raises(TypeError, match="one precision"):
        FusedHopping()(u.astype(np.complex64), psi, DEFAULT_FERMION_PHASES, out=np.empty_like(psi, dtype=np.complex128))


def test_fused_link_cache_invalidation():
    rng = np.random.default_rng(4)
    u = _rand_field(rng, (4, 4, 4, 4, 4, 3, 3), np.complex128)
    psi = _rand_field(rng, (4, 4, 4, 4, 4, 3), np.complex128)
    kernel = FusedHopping()
    kernel(u, psi, DEFAULT_FERMION_PHASES)
    # In-place mutation with explicit invalidation matches a fresh kernel
    # and the reference on the mutated links (the guard's heal contract).
    u *= np.exp(0.1j)
    u[2, 1, 0, 3, 2] *= -1.0
    kernel.invalidate()
    got = kernel(u, psi, DEFAULT_FERMION_PHASES)
    assert np.array_equal(got, FusedHopping()(u, psi, DEFAULT_FERMION_PHASES))
    assert np.array_equal(got, hopping_term(u, psi, DEFAULT_FERMION_PHASES))


@pytest.mark.parametrize(
    "dims,expect",
    [
        pytest.param((4, 2, 6, 2), "stacked", id="X2"),
        pytest.param((2, 4, 4, 6), None, id="X6"),
        pytest.param((8, 4, 8, 8), "per-direction", id="per-direction"),
    ],
)
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
@pytest.mark.parametrize("nrhs", [1, 3])
def test_parity_hop_is_the_hop_on_half_the_sites(dims, expect, dtype, nrhs):
    """The parity-ordered entry: planes of one parity in, the reference's
    hopping term on the sites of the other out, byte for byte, whatever
    sits on the sites it does not read — an all-zero source included."""
    rng = np.random.default_rng(44)
    u = _rand_field(rng, (4,) + dims + (3, 3), dtype)
    odd = (np.indices(dims).sum(axis=0) % 2).astype(bool)
    phases = (-1.0, 1.0, 1.0, -1.0)
    kernel = FusedHopping()
    kernel.workspace.clear()  # the thread's arena: only this test's slots
    shape = (nrhs,) + dims + (4, 3)
    for X in (_rand_field(rng, shape, dtype), np.zeros(shape, dtype)):
        want = np.stack([hopping_term(u, x, phases) for x in X])
        out = np.full_like(X, np.nan)
        with ufunc_rows():
            from_even, from_odd = (kernel.parity_planes(X, p, "in" + str(p)) for p in (0, 1))
            onto_odd = kernel.hop_parity_planes(u, from_even, phases, 1, "odd")
            onto_even = kernel.hop_parity_planes(u, from_odd, phases, 0, "even")
        kernel.store_parity_planes(out, (onto_even, onto_odd))
        assert out.tobytes() == want.tobytes()
        kernel.store_parity_planes(out, (None, onto_odd))
        assert not out[:, ~odd].any() and out[:, odd].tobytes() == want[:, odd].tobytes()
    if expect is not None:
        assert _passes(kernel) == {expect}


def test_parity_hop_rejects_what_it_does_not_cover():
    """Both kernels refuse planes of another precision or lattice, and an odd
    extent; a phase the half lattice does not take runs the fused kernel's
    lattice route, the reference kernel's parity hop byte for byte."""
    rng = np.random.default_rng(45)
    dims = (4, 4, 4, 4)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    X = _rand_field(rng, (1,) + dims + (4, 3), np.complex128)
    hops = []
    for kernel in (FusedHopping(), make_kernel("reference")):
        planes = kernel.parity_planes(X, 0, "in")
        with ufunc_rows():
            hops.append(kernel.hop_parity_planes(u, planes, TWISTED_PHASES, 1, "out").tobytes())
        with pytest.raises(TypeError, match="one precision"):
            kernel.hop_parity_planes(u.astype(np.complex64), planes, DEFAULT_FERMION_PHASES, 1, "out")
        with pytest.raises(TypeError, match="one precision"):
            kernel.store_parity_planes(np.empty_like(X, dtype=np.complex64), (planes, None))
        with pytest.raises(ValueError, match="do not match"):
            kernel.hop_parity_planes(u[:, :2], planes, DEFAULT_FERMION_PHASES, 1, "out")
        with pytest.raises(ValueError, match="even extents"):
            kernel.parity_planes(X[:, :3], 0, "in")
    assert hops[0] == hops[1]


def test_every_kernel_exposes_one_protocol():
    """Every registered kernel carries the same entry points, signatures
    included: the hop and its Wilson forms, the parity entry even-odd
    preconditioning runs on, and ``invalidate``."""
    import inspect

    methods = (
        "__call__", "apply_batch_into", "parity_planes", "hop_parity_planes",
        "store_parity_planes", "invalidate",
    )

    def signature(kernel, method):
        params = inspect.signature(getattr(kernel, method)).parameters.values()
        return [(p.name, p.kind, p.default) for p in params]

    kernels = [make_kernel(name) for name in available_kernels()]
    assert len(kernels) > 1
    for method in methods:
        assert all(callable(getattr(k, method, None)) for k in kernels), method
        assert all(signature(k, method) == signature(kernels[0], method) for k in kernels), method


def test_fused_parity_link_cache_invalidation(schur_formula):
    """``invalidate`` drops the per-parity link planes with the full ones:
    a link flipped in place reaches the Schur operator (the heal contract)."""
    lat = Lattice4D((4, 4, 2, 4))
    gauge = GaugeField.hot(lat, rng=46)
    x = random_fermion(lat, rng=47)
    eo = EvenOddWilson(gauge, 0.1, kernel="fused")
    schur = eo.schur_operator()
    before = schur.apply(x)
    eo.full_operator_apply(x)  # the full-lattice table is cached too
    gauge.u[1, 2, 1, 0, 3] *= -1.0
    assert np.array_equal(schur.apply(x), before)  # stale by contract
    eo._kernel.invalidate()
    assert np.array_equal(schur.apply(x), schur_formula(gauge.u, x, 0.1, eo.phases))
    assert not np.array_equal(schur.apply(x), before)
    want = EvenOddWilson(gauge, 0.1, kernel="reference")
    assert np.array_equal(eo.full_operator_apply(x), want.full_operator_apply(x))


def test_fused_scratch_bytes_per_site_at_16_4():
    """The workspace streams per direction term at large volume: at 16^4
    it stays under 3.75 fields (720 B/site in fp64: field and accumulator
    planes, three half-spinor stacks, a bounded multiply block) and the
    link table is one gauge field, with no shifted or daggered copy."""
    rng = np.random.default_rng(11)
    dims = (16, 16, 16, 16)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    psi = _rand_field(rng, dims + (4, 3), np.complex128)
    kernel = FusedHopping()
    kernel.workspace.clear()  # the thread's arena: this hop's buffers only
    kernel(u, psi, DEFAULT_FERMION_PHASES)
    assert kernel.workspace.nbytes / psi[..., 0, 0].size <= 720
    assert kernel._links.nbytes == u.nbytes
    # The eight terms run one 4096-site T tile at a time: a tile's planes, its
    # wrapped slab's and a bounded multiply block, where the untiled hop held 44 MB.
    assert plan(dims, 1, 8)[2] == 1
    assert kernel.workspace.nbytes < 5 << 20


# -- T-slab tiles: one loop, bytes of the untiled hop ----------------------------


def test_plan_tiles_only_hops_past_the_working_set():
    # Every hop of the serving, ladder and HMC workloads is one tile.
    for dims, nrhs in [((8, 4, 4, 4), 12), ((16, 4, 4, 4), 1), ((4, 4, 4, 4), 1)]:
        assert plan(dims, nrhs, 8)[2] == dims[0]
    assert plan((4, 4, 4, 2), 1, 8)[2] == 4  # a 4^4 half lattice
    # 4096 sites a tile in fp64, 8192 in fp32; a rank box of spmd_dslash tiles too.
    assert plan((16, 16, 16, 16), 1, 8)[2] == 1
    assert plan((16, 16, 16, 16), 1, 4)[2] == 2
    assert plan((8, 16, 16, 16), 1, 8)[2] == 1
    assert plan((16, 8, 8, 8), 1, 8)[2] == 8


@pytest.mark.parametrize(
    "phases", [DEFAULT_FERMION_PHASES, TWISTED_PHASES], ids=["antiperiodic", "twisted"]
)
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
@pytest.mark.parametrize("dims", [(3, 16, 16, 16), (18, 8, 8, 8)], ids=["3x16^3", "18x8^3"])
def test_tiled_hop_bitwise_equals_untiled(dims, dtype, phases, monkeypatch):
    """Tile by tile — the last one ragged in 3x16^3 fp32 and 18x8^3 — the
    hop is the untiled hop byte for byte, on a random and an all-zero source."""
    itemsize = np.dtype(dtype).itemsize // 2
    assert plan(dims, 1, itemsize)[2] < dims[0]
    rng = np.random.default_rng(12)
    u = _rand_field(rng, (4,) + dims + (3, 3), dtype)
    sources = [_rand_field(rng, dims + (4, 3), dtype), np.zeros(dims + (4, 3), dtype)]
    tiled = [FusedHopping()(u, psi, phases) for psi in sources]
    # The same per-direction pass over the whole volume as one tile.
    monkeypatch.setattr(fused, "_BLOCK_BYTES", 12 * itemsize * int(np.prod(dims)))
    assert plan(dims, 1, itemsize)[1:] == (1, dims[0])
    for psi, got in zip(sources, tiled):
        assert got.tobytes() == FusedHopping()(u, psi, phases).tobytes()
    if dtype == np.complex128 and phases is DEFAULT_FERMION_PHASES:
        assert tiled[0].tobytes() == hopping_term(u, sources[0], phases).tobytes()


@pytest.mark.parametrize("tile", [1, 2, 4])
def test_stacked_group_hop_in_tiles_takes_the_per_direction_pass(tile):
    """A 4^4 hop, whose plan is the stacked pass (group 8), cut into T tiles
    or given no link stack, runs four direction terms a call and gives the
    reference's bytes."""
    dims = (4, 4, 4, 4)
    assert plan(dims, 1, 8)[1:] == (8, 4)
    rng = np.random.default_rng(13)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    X = _rand_field(rng, dims + (4, 3), np.complex128)[None]
    out = np.empty_like(X)
    hops = FusedHopping().hop_tiles(
        X, 0, full_box(dims), link_planes(u), (None,) * 4, DEFAULT_FERMION_PHASES, 8, tile
    )
    with ufunc_rows():
        for box, _, acc in hops:
            store_planes(out[(slice(None),) + tuple(slice(*b) for b in box)], acc)
    assert out[0].tobytes() == hopping_term(u, X[0], DEFAULT_FERMION_PHASES).tobytes()


def test_e1_tile_sweep_smoke():
    from repro.bench.e1_dslash import e1_tile_sweep

    _, rows = e1_tile_sweep(volumes=[(4, 4, 4, 4)], rounds=1)
    assert [(r["precision"], r["tile_slabs"]) for r in rows] == [
        (prec, t) for prec in ("fp64", "fp32") for t in (1, 2, 4)]
    assert all(r["us_per_site"] > 0 for r in rows)
    # 4^4 plans the stacked pass: the one-tile rule row runs it, as a lattice
    # hop does; a hop cut into tiles takes the per-direction pass.
    assert [(r["rule"], r["pass"]) for r in rows] == [
        (t == 4, "stacked" if t == 4 else "per-direction") for _ in (0, 1) for t in (1, 2, 4)]


_RANK_TILE_LATTICE = (6, 16, 16, 16)


@lru_cache(maxsize=None)
def _rank_tile_case():
    """Fields on a lattice whose rank boxes run in several T tiles, and the
    reference Wilson apply on it."""
    lat = Lattice4D(_RANK_TILE_LATTICE)
    gauge = GaugeField.hot(lat, rng=41)
    psi = random_fermion(lat, rng=42)
    want = (0.3 + 4.0) * psi - 0.5 * hopping_term(gauge.u, psi, DEFAULT_FERMION_PHASES)
    return gauge, psi, want


@pytest.mark.parametrize("backend", ["virtual", "shm", "tcp"])
@pytest.mark.parametrize(
    "grid", [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1)], ids=["1x1x1x1", "2x1x1x1", "2x2x1x1"]
)
def test_decomposed_rank_tiles_bitwise_equal_the_reference(grid, backend):
    """Each rank box runs in T tiles (ragged on 2x2x1x1), wraps the axes it
    spans by sign and reads ghosts along the split ones; on tcp, split into
    the deep interior and the boundary slabs while the faces travel, the
    apply is the reference's bytes too."""
    gauge, psi, want = _rank_tile_case()
    with make_comm(grid, backend) as comm:
        local = comm.decompose(gauge.lattice).local_shape
        assert plan(local, 1, 8)[2] < local[0]
        op = DecomposedWilsonDirac(gauge, 0.3, comm)
        assert op.apply(psi).tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["virtual", "shm", "tcp"])
def test_rank_link_block_holds_the_planes_its_stencil_reads(backend):
    """``4 * 2 * 9`` reals a site plus one behind-slab per split axis, written
    from the links without any gauge exchange.  On a process backend the
    rank holds those bytes (its own checksum of its block says so) and the
    master none."""
    lat = Lattice4D((4, 4, 6, 2))
    gauge = GaugeField.hot(lat, rng=43)
    with make_comm((2, 2, 1, 1), backend) as comm:
        op = DecomposedWilsonDirac(gauge, 0.1, comm)
        assert comm.trace.message_count() == 0 and comm.trace.total_halo_bytes() == 0
        local, volume = (2, 2, 6, 2), 48
        reals = 72 * volume + 18 * volume // 2 + 18 * volume // 2
        assert rank_link_reals(local, (0, 1)) == reals
        blocks = []
        for r in range(4):
            idx = op.decomp.block_slices(r)
            block = np.empty(reals)
            write_rank_links(block, gauge.u, idx, (0, 1))
            links, behind = rank_links(block, local, (0, 1))
            assert np.array_equal(links, link_planes(gauge.u[(slice(None),) + idx]))
            assert behind[2] is None and behind[3] is None
            t0 = (idx[0].start - 1) % 4
            slab = (slice(0, 1), slice(t0, t0 + 1)) + idx[1:]
            assert np.array_equal(behind[0], link_planes(gauge.u[slab]))
            blocks.append(block)
        if backend == "virtual":
            for block, want in zip(op._link_blocks, blocks):
                assert block.dtype == np.float64 and block.tobytes() == want.tobytes()
        else:
            assert comm.block_checksums(op._u_key) == [zlib.crc32(b) for b in blocks]
            assert comm.blocks(op._u_key) == [None] * 4


def test_split_boxes_peels_only_split_axes():
    # No ``split``: every axis, as a rank that reads ghosts all round.
    deep, boundary = split_boxes((4, 3, 5, 3), 1)
    assert deep == ((1, 3), (1, 2), (1, 4), (1, 2))
    assert boundary == [
        ((0, 1), (0, 3), (0, 5), (0, 3)), ((3, 4), (0, 3), (0, 5), (0, 3)),
        ((1, 3), (0, 1), (0, 5), (0, 3)), ((1, 3), (2, 3), (0, 5), (0, 3)),
        ((1, 3), (1, 2), (0, 1), (0, 3)), ((1, 3), (1, 2), (4, 5), (0, 3)),
        ((1, 3), (1, 2), (1, 4), (0, 1)), ((1, 3), (1, 2), (1, 4), (2, 3)),
    ]
    assert split_boxes((4, 2, 5, 3), 1) == (None, [((0, 4), (0, 2), (0, 5), (0, 3))])
    # Split along T and Y: the boxes span Z and X whole.
    deep, boundary = split_boxes((4, 2, 5, 3), 1, (0, 2))
    assert deep == ((1, 3), (0, 2), (1, 4), (0, 3))
    assert boundary == [
        ((0, 1), (0, 2), (0, 5), (0, 3)), ((3, 4), (0, 2), (0, 5), (0, 3)),
        ((1, 3), (0, 2), (0, 1), (0, 3)), ((1, 3), (0, 2), (4, 5), (0, 3)),
    ]


# -- the rank stencil: the same core, wrapped slabs from the ghosts --------------

DIAG = 4.3


def _halo_block(rng, local):
    """A rank's halo-extended link and fermion blocks, ghosts as random as the interior."""
    ext = tuple(n + 2 for n in local)
    return (
        _rand_field(rng, (4,) + ext + (3, 3), np.complex128),
        _rand_field(rng, ext + (4, 3), np.complex128),
    )


def _whole_lattice_halos(u, psi, phases):
    """One rank holding the whole lattice: ghosts filled and phased by the exchange."""
    grid = make_comm((1, 1, 1, 1), "virtual").grid
    u_halo = add_halo(u, width=1, site_axis_start=1)
    psi_halo = add_halo(psi, width=1)
    halo_exchange([u_halo], grid, phases=None)
    halo_exchange([psi_halo], grid, phases=phases)
    return u_halo.data, psi_halo.data


def _halo_reference(u, psi):
    interior = (slice(1, -1),) * 4
    return DIAG * psi[interior] - 0.5 * hopping_term_halo(HaloField(u, 1, 1), HaloField(psi, 1, 0))


# Local extents 2 (forward and backward source coincide in a periodic
# lattice, not on a rank), 3 (a one-site deep interior), odd, and 16.
@pytest.mark.parametrize("local", [(2, 2, 2, 2), (3, 3, 3, 3), (5, 3, 7, 3), (16, 2, 3, 4)])
def test_halo_stencil_bitwise_equals_halo_reference(local):
    rng = np.random.default_rng(21)
    u, psi = _halo_block(rng, local)
    ref = _halo_reference(u, psi)
    stencil = HaloStencil()
    out = np.full(local + (4, 3), np.nan, np.complex128)
    assert stencil.wilson_box_into(out, u, None, psi, 1, full_box(local), DIAG) is out
    assert ref.tobytes() == out.tobytes()
    # Warm arena and cached link planes: identical again.
    stencil.wilson_box_into(out, u, None, psi, 1, full_box(local), DIAG)
    assert ref.tobytes() == out.tobytes()

    # Box by box: each box writes its own sites only, and together they
    # give the full-box result (the split schedule's exactness).
    deep, boundary = split_boxes(local, 1)
    boxes = boundary if deep is None else [deep] + boundary
    parts = np.full_like(out, np.nan)
    for box in boxes:
        before = np.isnan(parts[..., 0, 0]).sum()
        stencil.wilson_box_into(parts, u, None, psi, 1, box, DIAG)
        volume = int(np.prod([hi - lo for lo, hi in box]))
        assert before - np.isnan(parts[..., 0, 0]).sum() == volume
    assert ref.tobytes() == parts.tobytes()


@pytest.mark.parametrize(
    "phases", [DEFAULT_FERMION_PHASES, PERIODIC_PHASES, TWISTED_PHASES],
    ids=["antiperiodic", "periodic", "twisted"],
)
def test_halo_stencil_on_exchanged_ghosts_equals_single_domain(phases):
    """One rank holding the whole lattice: ghosts filled and phased by the
    exchange give the periodic lattice's own result, bit for bit."""
    rng = np.random.default_rng(22)
    dims = (4, 3, 2, 5)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    psi = _rand_field(rng, dims + (4, 3), np.complex128)
    u_halo, psi_halo = _whole_lattice_halos(u, psi, phases)
    out = np.empty_like(psi)
    HaloStencil().wilson_box_into(out, u_halo, None, psi_halo, 1, full_box(dims), DIAG)
    assert np.array_equal(out, _halo_reference(u_halo, psi_halo))
    assert np.array_equal(out, DIAG * psi - 0.5 * hopping_term(u, psi, phases))


def test_halo_stencil_strided_output_and_link_refresh():
    rng = np.random.default_rng(23)
    local = (4, 3, 5, 2)
    u, psi = _halo_block(rng, local)
    stencil = HaloStencil()
    # Every other time slice of a wider buffer: the gaps stay untouched.
    wide = np.full((8,) + local[1:] + (4, 3), np.nan, np.complex128)
    out = wide[::2]
    assert not out.flags.c_contiguous
    stencil.wilson_box_into(out, u, None, psi, 1, full_box(local), DIAG)
    assert np.array_equal(out, _halo_reference(u, psi))
    assert np.all(np.isnan(wide[1::2]))
    # A link rewritten in place (interior and ghost) reaches the result
    # once the planes cached from that block are dropped.
    u[1, 2, 2, 2, 1] *= -1.0
    u[0, 0, 1, 3, 1] *= np.exp(0.4j)
    stencil.invalidate(u)
    stencil.wilson_box_into(out, u, None, psi, 1, full_box(local), DIAG)
    assert np.array_equal(out, _halo_reference(u, psi))
    with pytest.raises(TypeError, match="one precision"):
        stencil.wilson_box_into(out, u, None, psi.astype(np.complex64), 1, full_box(local), DIAG)


@pytest.mark.slow
def test_rank_stencil_full_box_within_1p5x_of_fused():
    """A CI gate of the ``tests`` job: on one 8^4 field the rank stencil
    (ghost slabs and the ``diag`` combine included) costs at most 1.5x the
    ``fused`` hopping apply (ABBA quads, median of paired differences)."""
    lat = Lattice4D((8, 8, 8, 8))
    u = GaugeField.hot(lat, rng=31).u
    psi = random_fermion(lat, rng=32)
    out = np.empty_like(psi)
    u_halo, psi_halo = _whole_lattice_halos(u, psi, DEFAULT_FERMION_PHASES)
    kernel, stencil, box = FusedHopping(), HaloStencil(), full_box(lat.shape)
    ratio = paired_ratio(
        lambda: kernel(u, psi, DEFAULT_FERMION_PHASES, out=out),
        lambda: stencil.wilson_box_into(out, u_halo, None, psi_halo, 1, box, DIAG),
    )
    assert ratio <= 1.5, f"rank stencil / fused = {ratio:.2f} at 8^4"


def test_tiled_hop_forms_t_slabs_only_at_its_outer_faces(monkeypatch):
    """A 4x16^3 hop runs four one-slab tiles.  Only the first tile's
    backward and the last tile's forward T slab are formed from spinors;
    the six inner-face slabs are the ones the tile loop carried."""
    rng = np.random.default_rng(36)
    dims = (4, 16, 16, 16)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    psi = _rand_field(rng, dims + (4, 3), np.complex128)
    assert plan(dims, 1, 16)[2] == 1
    sources = []
    wrapped = fused.FusedHopping._wrapped

    def spy(self, source, mu, s):
        if mu == 0:
            sources.append("carried" if isinstance(source, np.ndarray) else "formed")
        return wrapped(self, source, mu, s)

    monkeypatch.setattr(fused.FusedHopping, "_wrapped", spy)
    fused.FusedHopping()(u, psi, DEFAULT_FERMION_PHASES)
    assert (sources.count("formed"), sources.count("carried")) == (2, 6)


@pytest.mark.slow
def test_tiled_hop_per_site_within_1p1x_of_one_tile():
    """A CI gate of the ``tests`` job: an 8x16^3 hop, eight one-slab tiles
    whose T neighbours are carried from tile to tile, costs at most 1.1x the
    same slabs hopped as eight 1x16^3 lattices of one tile each (ABBA quads,
    median of paired differences).  Re-loading and re-projecting both
    neighbour slabs in every tile read 1.04-1.45x."""
    rng = np.random.default_rng(35)
    dims = (8, 16, 16, 16)
    u = _rand_field(rng, (4,) + dims + (3, 3), np.complex128)
    psi = _rand_field(rng, dims + (4, 3), np.complex128)
    out = np.empty_like(psi)
    assert plan(dims, 1, 8)[2] == 1
    tiled = FusedHopping()
    slabs = [
        (FusedHopping(), np.ascontiguousarray(u[:, t : t + 1]), psi[t : t + 1], out[t : t + 1])
        for t in range(dims[0])
    ]

    def one_tile_hops() -> None:
        for kernel, u_t, psi_t, out_t in slabs:
            kernel(u_t, psi_t, DEFAULT_FERMION_PHASES, out=out_t)

    ratio = paired_ratio(
        one_tile_hops, lambda: tiled(u, psi, DEFAULT_FERMION_PHASES, out=out), quads=15
    )
    assert ratio <= 1.1, f"8x16^3 hop / eight 1x16^3 hops = {ratio:.2f}"


@pytest.mark.slow
@pytest.mark.parametrize(
    "dims", [(4, 4, 4, 4), (16, 4, 4, 4), (8, 8, 8, 8)], ids=["4^4", "16x4^3", "8^4"]
)
def test_schur_apply_within_1p25x_of_wilson_apply(dims):
    """The CI gate of even-odd on half the sites: a Schur apply (two half
    hops on planes) costs at most 1.25x a Wilson apply on the same fields;
    masked, it cost 2x.  At 4^4, 128 sites a parity, the half hops take the
    stacked pass; one direction term at a time they read 1.8x."""
    lat = Lattice4D(dims)
    gauge = GaugeField.hot(lat, rng=33)
    psi = random_fermion(lat, rng=34)
    out = np.empty_like(psi)
    wilson = WilsonDirac(gauge, 0.1, kernel="fused")
    schur = EvenOddWilson(gauge, 0.1, kernel="fused").schur_operator()
    ratio = paired_ratio(
        lambda: wilson.apply_into(psi, out), lambda: schur.apply_into(psi, out), quads=100
    )
    assert ratio <= 1.25, f"Schur apply / Wilson apply = {ratio:.2f} at {dims}"


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_available(self):
        # A closed set: every registered tier runs in tier-1.
        assert available_kernels() == ("fused", "reference")

    def test_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel_name() == DEFAULT_KERNEL

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert resolve_kernel_name() == "reference"
        # Explicit argument wins over the environment.
        assert resolve_kernel_name("fused") == "fused"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown Dslash kernel"):
            resolve_kernel_name("does-not-exist")

    # The second name is spelled in two pieces so that a grep of the tree
    # for removed names stays empty.
    @pytest.mark.parametrize("name", ["compiled", "compiled" + "-python", "naive"])
    def test_removed_tier_is_unknown(self, monkeypatch, tiny_lattice, name):
        """A removed tier is a ``ValueError`` naming the choices, as an
        argument and through the environment — never a silent ``fused``."""
        gauge = GaugeField.hot(tiny_lattice, rng=1)
        with pytest.raises(ValueError, match=f"'{name}'.*fused.*reference"):
            WilsonDirac(gauge, 0.1, kernel=name)
        monkeypatch.setenv(KERNEL_ENV_VAR, name)
        with pytest.raises(ValueError, match=f"'{name}'.*fused.*reference"):
            WilsonDirac(gauge, 0.1)

    def test_make_kernel_returns_fresh_instances(self):
        assert make_kernel("fused") is not make_kernel("fused")

    def test_operator_env_selection(self, monkeypatch, tiny_lattice):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        gauge = GaugeField.hot(tiny_lattice, rng=1)
        assert WilsonDirac(gauge, 0.1).kernel_name == "reference"
        assert WilsonDirac(gauge, 0.1, kernel="fused").kernel_name == "fused"

    def test_reference_kernel_out_path(self, tiny_lattice):
        rng = np.random.default_rng(9)
        gauge = GaugeField.hot(tiny_lattice, rng=2)
        psi = random_fermion(tiny_lattice, rng=rng)
        kernel = make_kernel("reference")
        out = np.empty_like(psi)
        kernel(gauge.u, psi, DEFAULT_FERMION_PHASES, out=out)
        assert np.array_equal(out, hopping_term(gauge.u, psi))
        with pytest.raises(ValueError):
            kernel(gauge.u, psi, DEFAULT_FERMION_PHASES, out=psi)


# -- apply_into protocol -------------------------------------------------------


def _operators(gauge, dtype):
    g = gauge if dtype == np.complex128 else gauge.astype(dtype)
    wilson = WilsonDirac(g, 0.1)
    dwf = DomainWallDirac(g, mf=0.04, ls=4)
    return [
        ("wilson", wilson, None),
        ("clover", CloverDirac(g, 0.1, csw=1.2), None),
        ("schur", EvenOddWilson(g, 0.1).schur_operator(), None),
        ("normal", NormalOperator(wilson), None),
        ("dwf", dwf, dwf.field_shape()),
    ]


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
def test_apply_into_matches_apply(tiny_lattice, dtype):
    rng = np.random.default_rng(13)
    gauge = GaugeField.hot(tiny_lattice, rng=7)
    for name, op, shape in _operators(gauge, dtype):
        shape = shape or (tiny_lattice.shape + (4, 3))
        psi = _rand_field(rng, shape, dtype)
        for fn, fn_into in (("apply", "apply_into"), ("apply_dagger", "apply_dagger_into")):
            ref = getattr(op, fn)(psi)
            out = np.empty_like(psi)
            assert getattr(op, fn_into)(psi, out) is out
            assert np.array_equal(ref, out), f"{name}.{fn_into} diverged from {fn}"
            # Warm-workspace repeat: stale scratch must not leak through.
            out2 = np.empty_like(psi)
            getattr(op, fn_into)(psi, out2)
            assert np.array_equal(ref, out2), f"{name}.{fn_into} unstable on reuse"


def test_call_with_out_counts_applies(tiny_lattice):
    gauge = GaugeField.hot(tiny_lattice, rng=3)
    op = WilsonDirac(gauge, 0.1)
    psi = random_fermion(tiny_lattice, rng=4)
    out = np.empty_like(psi)
    assert op.n_applies == 0
    y = op(psi)
    z = op(psi, out=out)
    assert op.n_applies == 2
    assert z is out and np.array_equal(y, out)


def test_matrix_operator_apply_into():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    op = MatrixOperator(m)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = np.empty_like(x)
    op.apply_into(x, out)
    assert np.array_equal(op.apply(x), out)


def test_gamma5_hermiticity_under_fused(tiny_lattice):
    """<chi, M psi> == <M^dag chi, psi> with the fused-kernel adjoint."""
    rng = np.random.default_rng(17)
    gauge = GaugeField.hot(tiny_lattice, rng=5)
    op = WilsonDirac(gauge, 0.1, kernel="fused")
    psi = random_fermion(tiny_lattice, rng=rng)
    chi = random_fermion(tiny_lattice, rng=rng)
    lhs = np.vdot(chi, op.apply(psi))
    out = np.empty_like(chi)
    op.apply_dagger_into(chi, out)
    rhs = np.vdot(out, psi)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
