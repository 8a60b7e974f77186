"""CLI tool tests: end-to-end pipelines through the argparse entry points."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import load_ensemble, load_gauge
from repro.tools import check_config, fix_gauge, generate_ensemble, scaling, spectrum


class TestGenerateEnsemble:
    def test_writes_configs_with_metadata(self, tmp_path):
        rc = generate_ensemble.main(
            [
                "--shape", "4", "4", "4", "4",
                "--beta", "5.7",
                "--configs", "2",
                "--therm", "3",
                "--separation", "2",
                "--seed", "9",
                "--out", str(tmp_path / "ens"),
            ]
        )
        assert rc == 0
        loaded = load_ensemble(tmp_path / "ens")
        assert len(loaded) == 2
        for i, (gauge, meta) in enumerate(loaded):
            assert meta["beta"] == 5.7
            assert meta["index"] == i
            assert 0.0 < meta["plaquette"] < 1.0
            assert gauge.unitarity_violation() < 1e-10

    def test_deterministic_given_seed(self, tmp_path):
        args = [
            "--shape", "2", "2", "2", "2", "--beta", "5.0", "--configs", "1",
            "--therm", "2", "--separation", "1", "--seed", "4",
        ]
        generate_ensemble.main(args + ["--out", str(tmp_path / "a")])
        generate_ensemble.main(args + ["--out", str(tmp_path / "b")])
        ga, _ = load_gauge(tmp_path / "a" / "cfg_0000.npz")
        gb, _ = load_gauge(tmp_path / "b" / "cfg_0000.npz")
        assert np.array_equal(ga.u, gb.u)


class TestSpectrumTool:
    def test_measures_stored_config(self, tmp_path, capsys):
        generate_ensemble.main(
            [
                "--shape", "8", "4", "4", "4", "--beta", "5.9", "--configs", "1",
                "--therm", "10", "--separation", "1", "--seed", "3",
                "--out", str(tmp_path / "ens"),
            ]
        )
        rc = spectrum.main(
            [
                "--config", str(tmp_path / "ens" / "cfg_0000.npz"),
                "--mass", "0.5",
                "--tol", "1e-7",
                "--tmin", "1",
                "--tmax", "3",
                "--no-nucleon",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pion" in out
        assert "correlators" in out


class TestScalingTool:
    def test_prints_tables(self, capsys):
        rc = scaling.main(["--machine", "bgq", "--max-nodes-log2", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out
        assert "strong scaling" in out
        assert "BlueGene/Q" in out

    def test_cluster_machine(self, capsys):
        rc = scaling.main(["--machine", "cluster", "--max-nodes-log2", "2"])
        assert rc == 0
        assert "generic-cluster" in capsys.readouterr().out


class TestFixGaugeTool:
    def test_fixes_and_writes(self, tmp_path, capsys):
        generate_ensemble.main(
            [
                "--shape", "4", "4", "4", "4", "--beta", "5.7", "--configs", "1",
                "--therm", "3", "--separation", "1", "--seed", "5",
                "--out", str(tmp_path / "ens"),
            ]
        )
        rc = fix_gauge.main(
            [
                "--config", str(tmp_path / "ens" / "cfg_0000.npz"),
                "--out", str(tmp_path / "fixed.npz"),
                "--mode", "landau",
                "--tol", "1e-8",
                "--max-iter", "500",
            ]
        )
        assert rc == 0
        fixed, meta = load_gauge(tmp_path / "fixed.npz")
        assert meta["gauge_mode"] == "landau"
        assert meta["gauge_theta"] < 1e-8
        from repro.gaugefix import gauge_condition_violation

        assert gauge_condition_violation(fixed) < 1e-8


class TestCheckConfigTool:
    @pytest.fixture
    def ensemble(self, tmp_path):
        generate_ensemble.main(
            [
                "--shape", "4", "4", "4", "4", "--beta", "5.7", "--configs", "2",
                "--therm", "3", "--separation", "1", "--seed", "21",
                "--out", str(tmp_path / "ens"),
            ]
        )
        return tmp_path / "ens"

    def test_clean_ensemble_passes(self, ensemble, capsys):
        rc = check_config.main([str(ensemble)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2 and "header stamp" in out

    def test_restamped_flip_caught_by_physics_rings(self, ensemble, capsys):
        # Flip a stored link bit, then re-save so the container CRC is
        # consistent with the corrupt payload — only the unitarity and
        # plaquette rings can catch it now.
        from repro.campaign import flip_bit
        from repro.io import save_gauge

        gauge, meta = load_gauge(ensemble / "cfg_0001.npz")
        flip_bit(gauge.u, 99)
        save_gauge(ensemble / "cfg_0001.npz", gauge, **meta)
        rc = check_config.main([str(ensemble)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "off SU(3)" in out

    def test_wrong_plaquette_stamp_caught(self, ensemble, capsys):
        from repro.io import save_gauge

        gauge, meta = load_gauge(ensemble / "cfg_0000.npz")
        meta["plaquette"] = meta["plaquette"] + 1e-3
        save_gauge(ensemble / "cfg_0000.npz", gauge, **meta)
        rc = check_config.main([str(ensemble / "cfg_0000.npz")])
        assert rc == 1
        assert "header stamp" in capsys.readouterr().out

    def test_unreadable_container_is_rc2(self, tmp_path, capsys):
        bad = tmp_path / "cfg_0000.npz"
        bad.write_bytes(b"definitely not an npz")
        rc = check_config.main([str(bad)])
        assert rc == 2
        assert "corrupt container" in capsys.readouterr().out

    def test_undecodable_compressed_config_is_rc2(self, tmp_path, capsys):
        # A compressed npz whose deflate stream is damaged: decoding it
        # raises zlib.error, which must still be an audit failure (rc 2).
        import io
        import json
        import zipfile
        import zlib

        from repro.fields import GaugeField
        from repro.lattice import Lattice4D

        buf = io.BytesIO()
        np.savez_compressed(
            buf, u=GaugeField.hot(Lattice4D((2, 2, 2, 2)), rng=1).u, meta=json.dumps({})
        )
        blob = buf.getvalue()

        def raises_zlib_error(data):
            try:
                with zipfile.ZipFile(io.BytesIO(data)) as zf:
                    zf.read("u.npy")
            except zlib.error:
                return True
            except Exception:
                return False
            return False

        for i in range(len(blob) // 4, len(blob)):
            bad = bytearray(blob)
            bad[i] ^= 0x10
            if raises_zlib_error(bytes(bad)):
                break
        else:
            pytest.fail("no flip found that breaks the deflate stream")
        path = tmp_path / "cfg_0000.npz"
        path.write_bytes(bytes(bad))
        assert check_config.main([str(path)]) == 2
        assert "corrupt container" in capsys.readouterr().out

    def test_empty_directory_is_rc2(self, tmp_path):
        rc = check_config.main([str(tmp_path)])
        assert rc == 2

    def test_quiet_prints_only_failures(self, ensemble, capsys):
        rc = check_config.main([str(ensemble), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""
