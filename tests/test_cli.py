"""Config-driven runner: validation, artifacts, determinism, exit codes."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_interpreter
from oracles import csv_text_loop
from discord_probe import cli, model_emission, model_ion, model_photon, model_spinchain
from discord_probe.cli import PARAMS, ConfigError, execute, load_config, main, parse

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
BENCH_CONFIGS = sorted((ROOT / "bench" / "configs").glob("*.yaml"))
# (config, axis) of every sweep command in the README
README_SWEEPS = re.findall(r"discord-probe sweep (configs/\S+\.yaml) --axis (\w+)",
                           (ROOT / "README.md").read_text())
# ground doublet split by 4.7e-13 < 1e-10: ground_state_detection refuses it
DEGENERATE_CHAIN = {"model": "spinchain", "params": {"n_spins": 4, "b_field": 0.001},
                    "time_grid": {"t_max": 12.0, "points": 40}}

# (model, section, field, value, message): values that convert but that the
# model cannot take; each run exits 4 with one line naming the field
OUT_OF_RANGE = [
    ("spinchain", "params", "n_spins", 13, "chain length must lie in [2, 12]"),
    ("spinchain", "params", "kT", -0.1, "temperature kT must be nonnegative"),
    ("ion", "params", "omega", 0, "Rabi frequency omega must be positive"),
    ("ion", "params", "omega", -1.0, "Rabi frequency omega must be positive"),
    ("photon-cv", "params", "delta_omega", 0,
     "Lorentzian half-width delta_omega must be positive"),
    ("photon-cv", "params", "delta_omega", -1.0,
     "Lorentzian half-width delta_omega must be positive"),
    ("photon-cv", "params", "t", -1, "preparation time t must be nonnegative"),
    ("emission", "params", "half_bandwidth", 0, "half_bandwidth must be positive"),
    ("emission", "params", "half_bandwidth", -20, "half_bandwidth must be positive"),
    ("emission", "time_grid", "points", 1, "emission time grid needs at least 2 "
     "points: its nonzero samples are the preparation times"),
]

# small runs of each model: (config, the printed line or the (witness, bound)
# of its "discord witnessed" line, the sorted files of the output directory)
SERIES = ["series.csv", "summary.json"]
VERDICT_CASES = {
    "ion": ({"model": "ion", "params": {"nbar": 1.0}, "time_grid": {"points": 30}},
            ("d_max", "D"), SERIES),
    "photon-cv": ({"model": "photon-cv", "time_grid": {"points": 40}},
                  ("max_tau_d", "D"), SERIES),
    "photon-dv": ({"model": "photon-dv", "params": {"theta": float(np.pi / 4)},
                   "time_grid": {"points": 20},
                   "basis_grid": {"n_theta": 6, "n_phi": 12}},
                  ("d_min", "D_min"), ["classical_series.csv", *SERIES]),
    "spinchain-ground": ({"model": "spinchain", "params": {"n_spins": 4},
                          "time_grid": {"t_max": 12.0, "points": 40}},
                         ("d_max", "negativity"), SERIES),
    "spinchain-thermal": ({"model": "spinchain", "params": {"n_spins": 4, "kT": 0.3},
                           "time_grid": {"t_max": 12.0, "points": 20},
                           "basis_grid": {"n_theta": 6, "n_phi": 12}},
                          ("d_min", "D_min"), SERIES),
    "emission": ({"model": "emission", "params": {"n_modes": 21},
                  "time_grid": {"points": 4}}, "run complete", SERIES),
    "haar": ({"model": "haar", "params": {"n_samples": 100}}, "run complete",
             ["summary.json"]),
    "generic": ({"model": "generic", "time_grid": {"points": 20}},
                ("d_max", "D"), SERIES),
    "generic-product": ({"model": "generic", "params": {"state": "product"},
                         "time_grid": {"points": 20}}, "no discord witnessed", SERIES),
}


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestCanonicalConfigs:
    # the benchmark runs the configs under bench/configs: a schema change that
    # refuses one fails here
    @pytest.mark.parametrize("path", CONFIGS + BENCH_CONFIGS, ids=[
        p.name for p in CONFIGS] + [f"bench-{p.name}" for p in BENCH_CONFIGS])
    def test_loads_with_known_params(self, path):
        parse(load_config(str(path)))

    @pytest.mark.parametrize("path", CONFIGS + BENCH_CONFIGS, ids=[
        p.name for p in CONFIGS] + [f"bench-{p.name}" for p in BENCH_CONFIGS])
    def test_runs(self, path, tmp_path):
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0

    def test_each_has_a_readme_sweep(self):
        assert len(CONFIGS) == 4
        assert sorted({c for c, _ in README_SWEEPS}) == [
            f"configs/{p.name}" for p in CONFIGS]

    @pytest.mark.parametrize("config,axis", README_SWEEPS)
    def test_readme_sweep_axis_is_a_param(self, config, axis):
        assert axis in PARAMS[load_config(str(ROOT / config))["model"]]


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

    @pytest.mark.parametrize("text", ["model: ion\n1: a\nfoo: b\n",
                                      "model: ion\nparams: {1: a, foo: b}\n"])
    def test_unknown_keys_of_mixed_type_exit_2(self, tmp_path, capsys, text):
        # an int and a str key cannot be sorted together: the message sorts by str
        (tmp_path / "c.yaml").write_text(text)
        assert main(["run", str(tmp_path / "c.yaml"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert re.fullmatch(r"config error: unknown fields \[1, 'foo'\] in "
                            r"(top level|ion params)\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model,field,value", [
        ("spinchain", "n_spins", 7.9), ("spinchain", "n_spins", "7"),
        ("spinchain", "n_spins", True), ("emission", "n_modes", None),
        ("emission", "structured", "false"), ("emission", "structured", 2),
        ("ion", "lamb_dicke_limit", "true"), ("spinchain", "b_field", "x"),
        ("spinchain", "b_field", "1.5"), ("spinchain", "b_field", True),
        ("ion", "t0", "0.5"), ("photon-dv", "lam", None),
        ("spinchain", "b_field", float("nan")),
        ("emission", "half_bandwidth", float("inf")),
        ("ion", "eta", float("-inf"))])
    def test_misread_values_rejected(self, model, field, value):
        expected = f"{model} params: .*{re.escape(repr(value))}"
        with pytest.raises(ConfigError, match=expected):
            parse({"model": model, "params": {field: value}})

    @pytest.mark.parametrize("cls,field,value", [
        (model_ion.IonParams, "omega", math.nan), (model_ion.IonParams, "eta", math.nan),
        (model_ion.IonParams, "nbar", math.nan),
        (model_spinchain.ChainParams, "alpha", math.nan),
        (model_spinchain.ChainParams, "j0", math.nan),
        (model_spinchain.ChainParams, "kT", math.nan),
        (model_emission.EmissionParams, "half_bandwidth", math.nan),
        (model_emission.EmissionParams, "coupling", math.nan),
        (model_emission.EmissionParams, "coupling", -math.inf),
        (model_ion.IonParams, "omega", math.inf), (model_ion.IonParams, "eta", math.inf),
        (model_ion.IonParams, "nbar", math.inf),
        (model_spinchain.ChainParams, "b_field", math.nan),
        (model_spinchain.ChainParams, "b_field", -math.inf),
        (model_spinchain.ChainParams, "kT", math.inf),
        (model_emission.EmissionParams, "half_bandwidth", math.inf),
        (model_emission.EmissionParams, "atomic_gap", math.nan),
        (model_emission.EmissionParams, "coupling_mask", (math.nan,) + (1.0,) * 400),
        (model_photon.PhotonParams, "delta_omega", math.inf),
        (model_photon.PhotonParams, "omega0", math.nan),
        (model_photon.PhotonParams, "omega0", -math.inf),
        (model_photon.PhotonParams, "t_prep", math.inf),
        (model_photon.PhotonParams, "grid_span", math.nan),
        (model_photon.PhotonParams, "grid_span", math.inf),
        (model_photon.DiscreteAncillaParams, "theta", math.nan),
        (model_photon.DiscreteAncillaParams, "theta", math.inf)])
    def test_parameter_classes_refuse_nan(self, cls, field, value):
        # the library refuses NaN and infinities itself, not only through _float
        with pytest.raises(ValueError):
            cls(**{field: value})

    def test_integral_and_boolean_values_accepted(self):
        kw = parse({"model": "emission",
                    "params": {"n_modes": 21.0, "structured": 1.0}})["params"]
        assert kw == {"n_modes": 21, "structured": True}
        assert type(kw["n_modes"]) is int
        assert parse({"model": "emission", "params": {"structured": False}})[
            "params"] == {"structured": False}

    def test_non_integral_time_grid_points_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml",
                         {"model": "spinchain", "params": {"n_spins": 3},
                          "time_grid": {"points": 40.5}})
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 2
        assert "time_grid: expected an integer, got 40.5" in capsys.readouterr().err

    def test_string_t_max_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml",
                         {"model": "spinchain", "params": {"n_spins": 3},
                          "time_grid": {"t_max": "5.0"}})
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 2
        assert "time_grid: expected a number, got '5.0'" in capsys.readouterr().err

    def test_non_integral_yaml_value_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml",
                         {"model": "spinchain", "params": {"n_spins": 7.9}})
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: spinchain params: expected an integer, got 7.9\n")

    def test_yaml_nan_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("model: spinchain\nparams: {n_spins: 3, b_field: .nan}\n")
        assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: spinchain params: expected a finite number, got nan\n")
        assert not (tmp_path / "out").exists()

    def test_non_integral_sweep_value_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", {"model": "spinchain"})
        out = tmp_path / "out"
        assert main(["sweep", p, "--axis", "n_spins", "--values", "7.5",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: spinchain params: expected an integer, got 7.5\n")
        assert not (out / "sweep.csv").exists()

    def test_sweep_checks_every_value_before_any_point_runs(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml",
                         {"model": "spinchain", "time_grid": {"points": 20}})
        out = tmp_path / "out"
        assert main(["sweep", p, "--axis", "n_spins", "--values", "3,3.5",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: spinchain params: expected an integer, got 3.5\n")
        assert not list(out.glob("point-*"))

    def test_integral_and_boolean_sweep_values_run(self, tmp_path):
        for cfg, axis, values in (
            ({"model": "spinchain", "time_grid": {"points": 20}}, "n_spins", "3,4"),
            ({"model": "emission", "params": {"n_modes": 21},
              "time_grid": {"points": 4}}, "structured", "0,1"),
        ):
            p = write_config(tmp_path / f"{axis}.yaml", cfg)
            out = tmp_path / axis
            assert main(["sweep", p, "--axis", axis, "--values", values,
                         "--out-dir", str(out)]) == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines] == [axis, *values.split(",")]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("change", [
        {"out_dir": "elsewhere"}, {"seed": "abc"}, {"seed": 1.5}, {"seed": None},
        {"params": None}, {"params": 5}, {"time_grid": {"t_max": "5"}},
        {"basis_grid": {"n_phi": "x"}}, {"params": {"state": "bogus"}},
        {"params": {"generator": "bogus"}}], ids=repr)
    def test_config_error_writes_nothing(self, tmp_path, capsys, command, change):
        p = write_config(tmp_path / "c.yaml", {"model": "generic",
                                               "time_grid": {"points": 5}, **change})
        out = tmp_path / "out"
        sweep = ["--axis", "d_b", "--values", "2,3"] if command == "sweep" else []
        assert main([command, p, *sweep, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_value_a_choice_cannot_take_writes_nothing(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", {"model": "generic"})
        out = tmp_path / "out"
        assert main(["sweep", p, "--axis", "state", "--values", "1",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: generic params: expected one of ('product', 'random'), "
            "got 1.0\n")
        assert not out.exists()

    def test_parse_leaves_its_argument_alone(self):
        cfg = {"model": "spinchain", "params": {"n_spins": 4.0},
               "time_grid": {"points": 20}}
        before = json.dumps(cfg)
        parsed = parse(cfg)
        assert json.dumps(cfg) == before
        assert parsed == {"model": "spinchain", "seed": 0, "params": {"n_spins": 4},
                          "time_grid": {"points": 20}, "basis_grid": {}}
        parsed["params"]["n_spins"] = 5
        assert cfg["params"]["n_spins"] == 4.0


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

    @pytest.mark.parametrize("theta", [float(np.pi / 4), float(np.pi / 2)])
    def test_photon_dv_flag_is_verdict(self, tmp_path, capsys, theta):
        # discord_witnessed and the d_min verdict read one threshold
        _, _, verdict = cli._run_photon_dv(parse({"model": "photon-dv",
                                                  "time_grid": {"points": 2}}))
        assert verdict == ("d_min", "D_min", cli.D_MIN_THRESHOLD)
        p = write_config(
            tmp_path / "c.yaml",
            {"model": "photon-dv", "params": {"lam": 0.5, "theta": theta},
             "basis_grid": {"n_theta": 20, "n_phi": 40}},
        )
        out = tmp_path / "out"
        assert main(["run", p, "--out-dir", str(out)]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        assert res["discord_witnessed"] == (res["d_min"] > cli.D_MIN_THRESHOLD)
        verdict = capsys.readouterr().out.strip()
        assert verdict.startswith("discord witnessed") == res["discord_witnessed"]
        assert res["discord_witnessed"] == (theta < 1.0)  # pi/2 is classical

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
        pops = sorted((c for _, c, _ in model_spinchain.excitation_overlaps(
            model_spinchain.ChainParams(n_spins=4))), reverse=True)
        assert res["top3_excitation_support"] == sum(pops[:3])

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

    @pytest.mark.parametrize("cfg,line,files", VERDICT_CASES.values(),
                             ids=VERDICT_CASES.keys())
    def test_verdict_line_and_files(self, tmp_path, capsys, cfg, line, files):
        # the printed line, from summary.json, and every file the run leaves
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "c.yaml", cfg),
                     "--out-dir", str(out)]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        if isinstance(line, tuple):
            w, b = line
            line = f"discord witnessed: {w} = {res[w]:.6g} <= {b} = {res[b]:.6g}"
        assert capsys.readouterr().out == line + "\n"
        assert sorted(os.listdir(out)) == files


# floats a CSV cell must carry: signed zeros, subnormals, the extremes,
# integer values, nan and the infinities, and anything else
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300,
                     -1e300, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16,
                     math.nan, math.inf, -math.inf]),
    st.integers(-2**53, 2**53).map(float),
    st.floats(allow_nan=True, allow_infinity=True))


class TestWriteCsv:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.integers(0, 30).flatmap(
        lambda n: st.lists(st.lists(CSV_FLOATS, min_size=n, max_size=n),
                           min_size=k, max_size=k))))
    def test_bytes_match_row_loop(self, tmp_path_factory, cols):
        columns = {f"c{i}": np.array(c, dtype=float) for i, c in enumerate(cols)}
        path = tmp_path_factory.mktemp("csv") / "series.csv"
        cli._write_csv(str(path), columns)
        assert path.read_bytes() == csv_text_loop(columns).encode()


class TestModelErrors:
    def test_run_exit_4(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err == "model error: ground state is (numerically) degenerate\n"

    @pytest.mark.parametrize("model,section,field,value,message", OUT_OF_RANGE,
                             ids=[f"{m}-{f}-{v}" for m, _, f, v, _ in OUT_OF_RANGE])
    def test_out_of_range_param_exit_4(self, tmp_path, capsys, model, section, field,
                                       value, message):
        # parameter classes and runners check their own ranges: a model error
        p = write_config(tmp_path / "c.yaml", {"model": model, section: {field: value}})
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"model error: {message}\n"

    @pytest.mark.parametrize("field,value", [
        ("n_theta", 0), ("n_phi", 0), ("refine_rounds", -3)])
    def test_out_of_range_basis_grid_exit_4(self, tmp_path, capsys, field, value):
        p = write_config(tmp_path / "c.yaml",
                         {"model": "photon-dv", "basis_grid": {field: value}})
        assert main(["run", p, "--out-dir", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            "model error: basis grid needs n_theta >= 1, n_phi >= 1 and "
            "refine_rounds >= 0\n")

    def test_execute_still_raises(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        with pytest.raises(ValueError, match="degenerate"):
            execute(load_config(p), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()  # made only after the run

    def test_failed_sweep_point_leaves_no_directory(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        out = tmp_path / "out"
        assert main(["sweep", p, "--axis", "b_field", "--values", "0.001,1.0",
                     "--out-dir", str(out)]) == 4
        assert sorted(os.listdir(out)) == ["point-001", "sweep.csv"]

    def test_sweep_of_failed_points_writes_its_csv(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        out = tmp_path / "new" / "out"
        assert main(["sweep", p, "--axis", "b_field", "--values", "0.001,0.0005",
                     "--out-dir", str(out)]) == 4
        assert "2 points over b_field, 2 failed" in capsys.readouterr().out
        assert os.listdir(out) == ["sweep.csv"]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "b_field" and len(lines) == 3

    def test_sweep_writes_nan_row_and_goes_on(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        out = tmp_path / "out"
        assert main(["sweep", p, "--axis", "b_field", "--values", "0.001,1.0,0.0005",
                     "--out-dir", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.count("model error at b_field = ") == 2
        assert "3 points over b_field, 2 failed" in captured.out
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [r[0] for r in rows] == [0.001, 1.0, 0.0005]
        assert all(np.isnan(rows[0][1:])) and all(np.isnan(rows[2][1:]))
        assert np.all(np.isfinite(rows[1]))
        res = json.loads((out / "point-001" / "summary.json").read_text())["results"]
        assert rows[1][header.index("d_max")] == res["d_max"]

    def test_config_error_in_sweep_keeps_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        assert main(["sweep", p, "--axis", "bogus", "--values", "1",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_malformed_values_are_a_usage_error(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", DEGENERATE_CHAIN)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", p, "--axis", "b_field", "--values", "1,x",
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2


class TestOutputErrors:
    # under a regular file makedirs fails; a directory in the place of
    # summary.json fails the rename
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("broken", ["under-a-file", "summary-is-a-directory"])
    def test_unwritable_output_exit_5(self, tmp_path, capsys, command, broken):
        p = write_config(tmp_path / "c.yaml", {"model": "generic",
                                               "time_grid": {"points": 5}})
        out = tmp_path / "out"
        if broken == "under-a-file":
            out.write_text("")
            out = out / "sub"
        else:
            point = out / "point-000" if command == "sweep" else out
            (point / "summary.json").mkdir(parents=True)
        sweep = ["--axis", "d_b", "--values", "2,3"] if command == "sweep" else []
        assert main([command, p, *sweep, "--out-dir", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert not [f for _, _, files in os.walk(tmp_path) for f in files
                    if f.startswith(".tmp-")]


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


class TestStartup:
    def test_scipy_loads_only_at_photon_cv(self, tmp_path):
        # an ion point off the Lamb-Dicke limit, a Gibbs chain and emission
        # leave scipy unloaded; photon-cv's D loads scipy.integrate at its call
        grid = {"t_max": 5.0, "points": 11}
        cfgs = [{"model": "ion", "params": {"nbar": 2.0, "lamb_dicke_limit": False},
                 "time_grid": grid},
                {"model": "spinchain", "params": {"n_spins": 4, "kT": 0.5},
                 "time_grid": grid, "basis_grid": {"n_theta": 4, "n_phi": 4}},
                {"model": "emission", "params": {"n_modes": 21}, "time_grid": grid},
                {"model": "photon-cv", "params": {"grid_points": 101}, "time_grid": grid}]
        code = (f"import sys; from discord_probe import cli\n"
                f"for i, cfg in enumerate({cfgs!r}):\n"
                f"    cli.execute(cfg, {str(tmp_path)!r} + f'/{{i}}')\n"
                f"    print('scipy' in sys.modules, 'scipy.integrate' in sys.modules)\n")
        assert fresh_interpreter(code) == ["False"] * 6 + ["True"] * 2
