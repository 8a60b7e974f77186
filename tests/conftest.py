"""Shared fixtures: small lattices and gauge backgrounds reused across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fields import GaugeField
from repro.lattice import Lattice4D


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_lattice() -> Lattice4D:
    """Asymmetric extents so axis-ordering bugs cannot cancel."""
    return Lattice4D((8, 6, 4, 2))


@pytest.fixture
def tiny_lattice() -> Lattice4D:
    return Lattice4D((4, 4, 4, 4))


@pytest.fixture
def hot_gauge(small_lattice) -> GaugeField:
    return GaugeField.hot(small_lattice, rng=99)


@pytest.fixture
def cold_gauge(small_lattice) -> GaugeField:
    return GaugeField.cold(small_lattice)


@pytest.fixture
def schur_formula():
    """``schur(u, x, mass, phases, dagger=False)``: the even-odd Schur operator
    ``d x_e - H_eo H_oe x_e / (4 d)`` of a full-lattice field (``gamma5 M_hat
    gamma5`` with ``dagger``), from :func:`~repro.dirac.hopping.hopping_term`
    and checkerboard masks alone — an oracle that shares no code with
    :mod:`repro.dirac.eo` or a kernel's parity entry.  Equal to them in value;
    compare with ``np.array_equal``, which takes -0.0 for +0.0."""
    from repro.dirac.hopping import hopping_term
    from repro.gammas import apply_gamma5
    from repro.lattice import checkerboard_masks, mask_field

    def schur(u, x, mass, phases, dagger=False):
        even, odd = checkerboard_masks(Lattice4D(u.shape[1:5]))
        d = mass + 4.0
        x_e = mask_field(apply_gamma5(x) if dagger else x, even)
        h_oe = mask_field(hopping_term(u, x_e, phases), odd)
        y = d * x_e - mask_field(hopping_term(u, h_oe, phases), even) / (4.0 * d)
        return apply_gamma5(y) if dagger else y

    return schur


# -- durable-state drills -------------------------------------------------------


def _payload_ranges(blob: bytes, arrays: dict) -> list[range]:
    """Byte ranges of the array payloads inside a container's npz bytes."""
    import io
    import zipfile

    out = []
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        for info in zf.infolist():
            name = info.filename.removesuffix(".npy")
            if name not in arrays:
                continue
            head = info.header_offset
            skip = int.from_bytes(blob[head + 26 : head + 28], "little")
            skip += int.from_bytes(blob[head + 28 : head + 30], "little")
            end = head + 30 + skip + info.compress_size
            out.append(range(end - arrays[name].nbytes, end))
    return out


@pytest.fixture
def bit_flip_sweep():
    """``sweep(path, read, error, stride)`` flips bits of a container file.

    Every bit of every byte outside the array payloads is flipped, plus
    every bit of every ``stride``-th payload byte, one flip at a time in
    place.  Each flipped file must make ``read(path) -> (arrays, meta)``
    raise ``error`` or return arrays identical to the original's (dtype
    included) with equal meta.  Returns ``(typed errors, identical reads)``.
    """

    def sweep(path, read, error, stride):
        blob = path.read_bytes()
        ref_arrays, ref_meta = read(path)
        payload = _payload_ranges(blob, ref_arrays)
        assert sum(len(r) for r in payload) == sum(a.nbytes for a in ref_arrays.values())
        positions = [
            i
            for i in range(len(blob))
            if all(i not in r or (i - r.start) % stride == 0 for r in payload)
        ]
        typed = same = 0
        fd = os.open(path, os.O_WRONLY)
        try:
            for i in positions:
                for bit in range(8):
                    os.pwrite(fd, bytes([blob[i] ^ (1 << bit)]), i)
                    try:
                        arrays, meta = read(path)
                    except error:
                        typed += 1
                        continue
                    finally:
                        os.pwrite(fd, blob[i : i + 1], i)
                    assert meta == ref_meta, f"silent meta change: byte {i} bit {bit}"
                    assert arrays.keys() == ref_arrays.keys()
                    for name, a in arrays.items():
                        b = ref_arrays[name]
                        assert (a.dtype, a.shape) == (b.dtype, b.shape), (i, bit)
                        assert a.tobytes() == b.tobytes(), f"silent data: byte {i} bit {bit}"
                    same += 1
        finally:
            os.close(fd)
        return typed, same

    return sweep


class _Crash(BaseException):
    """A simulated power cut: nothing in the library may catch it."""


class CrashPoints:
    """Run a job with a crash at its k-th ``os.fsync``/``os.replace`` call.

    Those calls are the durability boundaries of every file this package
    writes (``atomic_write_bytes`` and ``Ledger.append``).  ``run`` returns
    how many boundaries the job reached; ``run_torn`` instead writes half
    of the line of the k-th ledger append and crashes there, and returns
    the number of appends the job reached.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def _run(self, job):
        try:
            job()
        except _Crash:
            pass

    def run(self, job, crash_at=None) -> int:
        seen = 0

        def boundary(real):
            def hooked(*args, **kwargs):
                nonlocal seen
                seen += 1
                if seen == crash_at:
                    raise _Crash(f"crash at boundary {seen}")
                return real(*args, **kwargs)

            return hooked

        with self.monkeypatch.context() as m:
            m.setattr(os, "fsync", boundary(os.fsync))
            m.setattr(os, "replace", boundary(os.replace))
            self._run(job)
        return seen

    def run_torn(self, job, torn_at=None) -> int:
        import json

        from repro.campaign.ledger import Ledger

        seen = 0
        real_append = Ledger.append

        def append(ledger, record):
            nonlocal seen
            seen += 1
            if seen != torn_at:
                return real_append(ledger, record)
            line = json.dumps(record, sort_keys=True) + "\n"
            with open(ledger.path, "a", encoding="utf-8") as fh:
                fh.write(line[: len(line) // 2])
            raise _Crash(f"crash mid-append {seen}")

        with self.monkeypatch.context() as m:
            m.setattr(Ledger, "append", append)
            self._run(job)
        return seen


@pytest.fixture
def crash_points(monkeypatch) -> CrashPoints:
    return CrashPoints(monkeypatch)
