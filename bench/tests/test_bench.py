"""Tests of the benchmark itself (not part of the program's tier-1 suite):

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import spans
from workloads import WORKLOADS, point_key

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDENS = checks.load_goldens()


def _golden_of(model, minimized=None):
    """First golden result of a model (and of a kind, for the spin chain)."""
    for point in GOLDENS.values():
        if point["model"] != model or "results" not in point:
            continue
        if minimized is None or ("d_min" in point["results"]) == minimized:
            return point
    raise LookupError(model)


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_seeded(name):
    w = WORKLOADS[name]
    assert w.pool(7) == w.pool(7)
    assert w.pool(7) != w.pool(8)
    # every point a seed can draw has a recorded golden
    assert all(point_key(cfg) in GOLDENS for cfg in w.pool(7))


def test_generated_configs_pass_schema_validation(tmp_path):
    from discord_probe import cli

    pool = WORKLOADS["closed-form-mix"].pool(0)[:10]
    for path, cfg in zip(run.write_configs(pool, tmp_path), pool):
        loaded = cli.load_config(str(path))
        assert point_key(loaded) == point_key(cfg)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- output checks --------------------------------------------------------------


def _execute(cfg, out_dir):
    from discord_probe import cli

    return cli.execute(cfg, str(out_dir))["results"]


@pytest.mark.parametrize("model", ["ion", "photon-cv"])
def test_closed_form_check_rejects_corrupted_series(model, tmp_path):
    cfg = next(c for c in WORKLOADS["closed-form-mix"].lattice() if c["model"] == model)
    results = _execute(cfg, tmp_path)
    assert checks.check_point(cfg, results, str(tmp_path), GOLDENS[point_key(cfg)]) == []
    series = tmp_path / "series.csv"
    lines = series.read_text().splitlines()
    head, first = lines[0].split(","), lines[1].split(",")
    first[head.index("d_t")] = repr(float(first[head.index("d_t")]) + 2e-3)
    series.write_text("\n".join([lines[0], ",".join(first)] + lines[2:]) + "\n")
    assert checks.check_closed_form(cfg, results, str(tmp_path))


def test_ion_disturbance_check_rejects_corruption(tmp_path):
    cfg = next(c for c in WORKLOADS["closed-form-mix"].lattice() if c["model"] == "ion")
    results = _execute(cfg, tmp_path)
    assert checks.check_closed_form(cfg, {**results, "D": results["D"] + 1e-5},
                                    str(tmp_path))


@pytest.mark.parametrize("model,minimized", [
    ("ion", None), ("photon-cv", None), ("photon-dv", None), ("spinchain", True),
    ("spinchain", False), ("generic", None),
])
def test_invariant_check_rejects_witness_above_bound(model, minimized):
    point = _golden_of(model, minimized)
    cfg = {"model": model, "params": point["params"]}
    results = dict(point["results"])
    assert checks.check_invariants(cfg, results) == []
    for witness, bound in checks.WITNESS_BOUND[model]:
        if witness in results:
            results[witness] = results[bound] + 1e-6
            break
    assert checks.check_invariants(cfg, results)


@pytest.mark.parametrize("model,minimized", [
    ("ion", None), ("photon-cv", None), ("photon-dv", None), ("spinchain", True),
    ("spinchain", False), ("emission", None), ("haar", None), ("generic", None),
])
def test_golden_check_rejects_each_corrupted_value(model, minimized):
    golden = _golden_of(model, minimized)
    assert checks.check_golden(dict(golden["results"]), golden) == []
    for key, value in golden["results"].items():
        if key in checks.UNCHECKED:
            continue
        results = dict(golden["results"])
        results[key] = (not value) if isinstance(value, bool) else value + 1e-6
        assert checks.check_golden(results, golden), key
        if key in checks.MINIMIZED:
            # a better minimizer lowers the value and is not flagged
            results[key] = value - 1e-6
            assert checks.check_golden(results, golden) == [], key


def test_golden_check_rejects_a_point_without_golden():
    golden = _golden_of("ion")
    assert checks.check_golden(dict(golden["results"]), None)


def test_error_check_accepts_only_the_recorded_error():
    degenerate = next(p for p in GOLDENS.values() if "error" in p)
    assert checks.check_error(degenerate["error"], degenerate) == []
    assert checks.check_error("ValueError: something else", degenerate)
    assert checks.check_error(degenerate["error"], _golden_of("ion"))
    assert checks.check_error(degenerate["error"], None)


class _RaisingCli:
    """cli.execute that raises for one model and runs the others."""

    def __init__(self, model):
        from discord_probe import cli

        self.model, self.original = model, cli.execute

    def execute(self, cfg, out_dir):
        if cfg["model"] == self.model:
            raise RuntimeError("injected failure")
        return self.original(cfg, out_dir)


def test_point_runner_flags_a_point_that_should_complete_but_raises(tmp_path):
    cfg = next(c for c in WORKLOADS["closed-form-mix"].lattice() if c["model"] == "ion")
    rec = run.PointRunner(_RaisingCli("ion"), tmp_path, GOLDENS).run(cfg, spans.Tracer(), 0)
    assert not rec["ok"] and rec["error"] and rec["problems"]
    # with no golden recorded the point is flagged even when it completes
    rec = run.PointRunner(_RaisingCli(None), tmp_path, {}).run(cfg, spans.Tracer(), 0)
    assert rec["error"] is None and not rec["ok"] and rec["problems"]


def test_run_is_not_correct_when_points_that_should_complete_raise(monkeypatch):
    from discord_probe import cli

    monkeypatch.setattr(cli, "execute", _RaisingCli("photon-dv").execute)
    summary = run.run_workload("closed-form-mix", 3, 0.1, False, setup_reps=1)["summary"]
    assert summary["failed"] > 0
    assert summary["correct"] is False


def test_run_fails_instead_of_reporting_a_short_sample(monkeypatch):
    class Failing:
        def run(self, cfg, tracer, point_id):
            time.sleep(0.01)
            return {"s": 0.01, "ok": False}

    monkeypatch.setattr(run, "HARD_LIMIT_S", 0.05)
    with pytest.raises(SystemExit, match="no metrics reported"):
        run.run_for(Failing(), [{}], spans.Tracer(), 1.0, 1)


def test_known_degenerate_points_are_recorded_as_failures():
    errors = [p for p in GOLDENS.values() if "error" in p]
    assert errors and all(p["params"]["n_spins"] == 8 and p["params"]["b_field"] < 0.112
                          and "degenerate" in p["error"] for p in errors)
    known = WORKLOADS["ground-sweep"].known_failures()
    assert sorted(point_key(c) for c in known) == sorted(
        k for k, p in GOLDENS.items() if "error" in p)


def test_known_failures_stay_out_of_the_timed_pool_and_still_raise(tmp_path):
    from discord_probe import cli

    w = WORKLOADS["ground-sweep"]
    known = {point_key(c) for c in w.known_failures()}
    assert known and not known & {point_key(c) for c in w.pool(7)}
    rec = run.PointRunner(cli, tmp_path, GOLDENS).run(
        w.known_failures()[0], spans.Tracer(), 0)
    assert "degenerate" in rec["error"] and rec["problems"] == []


# -- tracer -------------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with_outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(with_outer)
    layers = tracer.layers()
    d_outer = tracer.spans[0][2] - tracer.spans[0][1]
    d_inner = tracer.spans[1][2] - tracer.spans[1][1]
    assert layers["outer"]["self_s"] == pytest.approx(d_outer - d_inner)
    assert layers["inner"]["self_s"] == pytest.approx(d_inner)


def test_install_wraps_from_imports_and_uninstall_restores():
    import numpy as np

    from discord_probe import model_spinchain, protocol

    original = protocol.run_minimized_detection
    eigvalsh = np.linalg.eigvalsh
    tracer = spans.Tracer()
    run.install_layers(tracer)
    try:
        assert model_spinchain.run_minimized_detection is protocol.run_minimized_detection
        assert protocol.run_minimized_detection is not original
        assert np.linalg.eigvalsh is not eigvalsh
    finally:
        tracer.uninstall()
    assert model_spinchain.run_minimized_detection is original
    assert protocol.run_minimized_detection is original
    assert np.linalg.eigvalsh is eigvalsh


def test_times_are_scaled_by_host_slowdown():
    records = [{"point": i, "s": 0.1 * (1 + i % 7), "ok": i % 13 != 0} for i in range(120)]
    nominal = run.SETUP_REF_NOMINAL_S
    setup = [(1.0, nominal), (1.2, nominal), (1.1, nominal)]
    ref = [[0.01] * 2 for _ in range(13)]  # 12 rounds of 10 points, nominal 0.01
    base, _, raw = run.end_to_end(records, setup, ref, 10, 0.01)
    # a host twice as slow throughout gives the same metrics
    slow, _, _ = run.end_to_end([{**r, "s": 2 * r["s"]} for r in records],
                                [(2 * s, 2 * r) for s, r in setup],
                                [[2 * t for t in bound] for bound in ref], 10, 0.01)
    assert raw["host_slowdown"] == raw["setup_slowdown"] == 1.0
    assert base["point_s.p50"] == raw["point_s.p50"]
    assert base["setup_s"] == pytest.approx(raw["setup_s"]) == pytest.approx(1.1)
    for key in ("setup_s", "point_s.p50", "point_s.p90"):
        assert slow[key] == pytest.approx(base[key])
    assert slow["points_per_s"] == pytest.approx(base["points_per_s"])
    assert slow["failed_frac"] == base["failed_frac"] == pytest.approx(10 / 120)
    # each set-up run is scaled by the reference run next to it
    paired, _, _ = run.end_to_end(records, [(1.0, nominal), (2.4, 2 * nominal),
                                            (3.3, 3 * nominal)], ref, 10, 0.01)
    assert paired["setup_s"] == pytest.approx(1.1)


def test_point_times_are_scaled_by_the_reference_around_their_round():
    records = [{"point": i} for i in range(120)]
    # the host halves its speed just before round 6
    ref = [[0.01 * (2 if j >= 6 else 1)] * 2 for j in range(13)]
    factors = run.local_slowdowns(records, ref, 10, 0.01)
    assert all(f == 1.0 for f in factors[:50])
    assert all(f == 2.0 for f in factors[60:])


# -- whole runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_runs():
    return [run.run_workload("closed-form-mix", 3, 1.0, True, trace_points=15)
            for _ in range(2)]


def test_traced_metric_names_match_benchmark_json(traced_runs):
    metrics = traced_runs[0]["summary"]["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])


def test_layer_self_times_sum_to_timed_wall(traced_runs):
    values = traced_runs[0]["record"]["per_layer"]
    wall = values["trace.wall_s"]
    layered = sum(values[f"layer.{m}.self_s"] for m in run.LAYER_MODULES)
    overhead = max(values["trace.overhead_frac"], 0.02)
    assert abs(wall - layered) <= overhead * wall


def test_kernel_counts_repeat_for_a_seed(traced_runs):
    first, second = (r["summary"]["metrics"] for r in traced_runs)
    counts = [k for k in first if k.startswith("kernel.")
              and k.rsplit(".", 1)[1] in ("calls", "matrices", "work_n3", "dim_max")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_untraced_metric_names_match_benchmark_json():
    out = run.run_workload("closed-form-mix", 3, 0.1, False, setup_reps=1)
    summary = out["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= run.MIN_POINTS
    assert [(k, v["unit"]) for k, v in summary["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert out["record"]["counts"]["point_s.p90"] >= 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ground-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
