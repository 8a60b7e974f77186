"""Configuration I/O round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fields import GaugeField
from repro.io import (
    CorruptConfigError,
    load_ensemble,
    load_gauge,
    save_ensemble,
    save_gauge,
)
from repro.lattice import Lattice4D


class TestConfigIO:
    def test_roundtrip_preserves_links_and_metadata(self, tmp_path, tiny_lattice):
        g = GaugeField.hot(tiny_lattice, rng=1)
        path = tmp_path / "cfg.npz"
        save_gauge(path, g, beta=5.7, trajectory=42)
        loaded, meta = load_gauge(path)
        assert np.array_equal(loaded.u, g.u)
        assert loaded.lattice == tiny_lattice
        assert meta == {"beta": 5.7, "trajectory": 42}

    def test_load_accepts_missing_extension(self, tmp_path, tiny_lattice):
        g = GaugeField.cold(tiny_lattice)
        save_gauge(tmp_path / "cfg.npz", g)
        loaded, _ = load_gauge(tmp_path / "cfg")
        assert np.array_equal(loaded.u, g.u)

    def test_corrupt_shape_rejected(self, tmp_path, tiny_lattice):
        from repro.io.container import write_container

        # A valid container whose array is not a (4, T, Z, Y, X, 3, 3) link field.
        write_container(tmp_path / "bad.npz", {"u": np.zeros((4, 2, 2, 2, 2, 3))}, {})
        with pytest.raises(ValueError):
            load_gauge(tmp_path / "bad.npz")

    def test_ensemble_roundtrip_ordered(self, tmp_path, tiny_lattice):
        configs = [GaugeField.hot(tiny_lattice, rng=i) for i in range(3)]
        paths = save_ensemble(tmp_path / "ens", configs, beta=6.0)
        assert len(paths) == 3
        loaded = load_ensemble(tmp_path / "ens")
        assert len(loaded) == 3
        for i, (g, meta) in enumerate(loaded):
            assert np.array_equal(g.u, configs[i].u)
            assert meta["index"] == i
            assert meta["beta"] == 6.0

    def test_empty_ensemble_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_ensemble(tmp_path / "empty")


class TestCrashConsistency:
    """save_gauge writes atomically; load_gauge never returns garbage."""

    def test_save_leaves_no_temp_files(self, tmp_path, tiny_lattice):
        save_gauge(tmp_path / "cfg.npz", GaugeField.cold(tiny_lattice))
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.npz"]

    def test_truncated_file_raises_corrupt_config(self, tmp_path, tiny_lattice):
        path = tmp_path / "cfg.npz"
        save_gauge(path, GaugeField.hot(tiny_lattice, rng=3))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # interrupted write, pre-hardening
        with pytest.raises(CorruptConfigError):
            load_gauge(path)

    def test_bitflip_fails_checksum(self, tmp_path, tiny_lattice):
        path = tmp_path / "cfg.npz"
        save_gauge(path, GaugeField.hot(tiny_lattice, rng=4))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # one flipped bit in the link payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptConfigError):
            load_gauge(path)

    @pytest.mark.parametrize("stride", [97, pytest.param(1, marks=pytest.mark.slow)])
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # flipped npy dtype codes
    def test_every_bit_flip_is_caught_or_harmless(self, tmp_path, bit_flip_sweep, stride):
        path = tmp_path / "cfg.npz"
        g = GaugeField.hot(Lattice4D((2, 2, 2, 2)), rng=6)
        save_gauge(path, g, beta=5.7, trajectory=12, plaquette=0.123456789)

        def read(p):
            gauge, meta = load_gauge(p)
            return {"u": gauge.u}, meta

        typed, same = bit_flip_sweep(path, read, CorruptConfigError, stride)
        assert typed > same > 0

    def test_corrupt_error_is_a_value_error(self):
        assert issubclass(CorruptConfigError, ValueError)

    def test_legacy_file_without_crc_is_rejected(self, tmp_path, tiny_lattice):
        import json as _json

        g = GaugeField.hot(tiny_lattice, rng=5)
        np.savez_compressed(
            tmp_path / "old.npz",
            u=g.u,
            meta=_json.dumps({"shape": list(tiny_lattice.shape), "beta": 5.7}),
        )
        with pytest.raises(CorruptConfigError):
            load_gauge(tmp_path / "old.npz")
