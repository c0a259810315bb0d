"""Config-driven runner: validation, artifacts, determinism, exit codes."""

import json
import os

import numpy as np
import pytest
import yaml

from discord_probe.cli import ConfigError, load_config, main


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", {"model": "ion", "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

    def test_unknown_model_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", {"model": "nope"})
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2

    def test_bad_params_exit_2(self, tmp_path):
        p = write_config(
            tmp_path / "c.yaml", {"model": "ion", "params": {"what": 3}}
        )
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 2


class TestRun:
    def test_ion_point_value(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "ion", "params": {"nbar": 0.0},
             # midpoint of the grid is exactly t1 = pi/(2 Omega0)
             "time_grid": {"t_max": float(np.pi / 0.05), "points": 65}},
        )
        out = tmp_path / "out"
        assert main(["run", p, "--out-dir", str(out)]) == 0
        assert "discord witnessed" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["d_max"] == pytest.approx(0.5, abs=1e-6)
        assert (out / "series.csv").exists()

    def test_product_state_no_discord(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "generic", "params": {"state": "product"}},
        )
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 0
        assert "no discord witnessed" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["results"]["d_max"] <= 1e-12

    def test_noninteracting_no_discord(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "generic", "params": {"generator": "noninteracting"}},
        )
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 0
        assert "no discord witnessed" in capsys.readouterr().out

    def test_haar_three_sigma(self, tmp_path):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "haar", "seed": 7, "params": {"n_samples": 10000}},
        )
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 0
        res = json.loads(
            (tmp_path / "out" / "summary.json").read_text()
        )["results"]
        assert abs(res["mean"] - res["predicted"]) <= 3 * res["std_error"]

    def test_photon_dv_two_witnesses(self, tmp_path):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "photon-dv",
             "params": {"lam": 0.5, "theta": float(np.pi / 2)},
             "basis_grid": {"n_theta": 30, "n_phi": 60}},
        )
        out = tmp_path / "out"
        assert main(["run", p, "--out-dir", str(out)]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        assert not res["discord_witnessed"]
        assert res["classical_correlation_detected"]
        assert (out / "classical_series.csv").exists()

    def test_spinchain_ground_state_verdict(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "spinchain", "params": {"n_spins": 4},
             "time_grid": {"t_max": 12.0, "points": 80}},
        )
        out = tmp_path / "out"
        assert main(["run", p, "--out-dir", str(out)]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        assert capsys.readouterr().out.strip() == (
            f"discord witnessed: d_max = {res['d_max']:.6g} <= "
            f"negativity = {res['negativity']:.6g}"
        )

    def test_photon_cv_verdict(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "photon-cv", "time_grid": {"t_max": 6.0, "points": 100}},
        )
        out = tmp_path / "out"
        assert main(["run", p, "--out-dir", str(out)]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        assert capsys.readouterr().out.strip() == (
            f"discord witnessed: max_tau_d = {res['max_tau_d']:.6g} <= "
            f"D = {res['D']:.6g}"
        )

    def test_photon_cv_product_state_verdict(self, tmp_path, capsys):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "photon-cv", "params": {"t": 0.0},
             "time_grid": {"t_max": 6.0, "points": 100}},
        )
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.strip() == "no discord witnessed"

    def test_determinism(self, tmp_path):
        cfg = {"model": "generic", "seed": 3,
               "time_grid": {"t_max": 5.0, "points": 40}}
        p = write_config(tmp_path / "c.yaml", cfg)
        assert main(["run", p, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", p, "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("summary.json", "series.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = {"model": "haar", "params": {"n_samples": 200}}
        p = write_config(tmp_path / "c.yaml", cfg)
        assert main(["run", p, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", p, "--seed", "9", "--out-dir", str(tmp_path / "b")]) == 0
        a = json.loads((tmp_path / "a" / "summary.json").read_text())
        b = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert a["config_hash"] != b["config_hash"]
        assert b["seed"] == 9


class TestSweep:
    def test_spinchain_small_sweep(self, tmp_path):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "spinchain",
             "params": {"n_spins": 4},
             "time_grid": {"t_max": 12.0, "points": 80}},
        )
        out = tmp_path / "out"
        assert main([
            "sweep", p, "--axis", "b_field",
            "--values", "0.2,0.6,1.0,1.6,3.0", "--out-dir", str(out),
        ]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "b_field" and len(lines) == 6
        d_max = [float(l.split(",")[header.index("d_max")]) for l in lines[1:]]
        # single interior maximum near the critical region
        peak = int(np.argmax(d_max))
        assert 0 < peak < 4
        assert all((out / f"point-{i:03d}" / "summary.json").exists()
                   for i in range(5))

    def test_ion_nbar_sweep_plateau(self, tmp_path):
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "ion",
             "time_grid": {"t_max": float(np.pi / 0.05), "points": 65}},
        )
        out = tmp_path / "out"
        assert main([
            "sweep", p, "--axis", "nbar", "--values", "0,5,20",
            "--out-dir", str(out),
        ]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        col = header.index("d_max")
        vals = [float(l.split(",")[col]) for l in lines[1:]]
        assert vals[0] == pytest.approx(0.5, abs=1e-6)
        assert vals[0] > vals[1] > 0.2
