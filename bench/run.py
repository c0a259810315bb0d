"""Sweep benchmark for discord-probe.

    python3 bench/run.py --workload thermal-dmin --seed 1 --seconds 10 --trace 0

One client sends one point at a time (a closed loop, as `discord-probe sweep`
runs) through `discord_probe.cli.execute`, in the seed-shuffled order of
`workloads.py`, and checks every point's output outside the timed region.

--trace 0 measures for at least --seconds seconds of point time (and at least
MIN_POINTS successful points, so that ten lie beyond the 90th percentile) and
prints the end-to-end metrics, with point times scaled to the reference box's
speed by a host reference timed between rounds (see end_to_end). --trace 1
runs a fixed number of points twice, untraced and then with every public
function of the program's modules wrapped from outside, and prints the
per-layer metrics; the fixed count makes kernel counts repeat exactly for a
seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything measured, with the environment, is
also written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_POINTS = 100      # successful points per untraced run: ten beyond p90
SETUP_REPS = 3        # pairs of fresh interpreters per setup_s measurement
HARD_LIMIT_S = 120.0  # stop a run that cannot reach MIN_POINTS in time
# median time of one host_reference(dim) pass on the reference box, by dim
# (README)
REF_NOMINAL_S = {160: 0.0125, 352: 0.036}
# median time of one SETUP_REF_CODE interpreter on the reference box (README)
SETUP_REF_NOMINAL_S = 0.75
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = (
    "import os, sys\n"
    "import discord_probe.cli as cli\n"
    "d = sys.argv[1]\n"
    "for f in sorted(os.listdir(d)):\n"
    "    cli.load_config(os.path.join(d, f))\n"
)
# the same start-up work without the program: its third-party imports only
SETUP_REF_CODE = "import numpy, scipy.integrate, scipy.special, yaml\n"


def prepare_imports():
    """Cap BLAS threads at nproc (before numpy loads) and put the program's
    source first on the import path."""
    if not (SRC / "discord_probe" / "cli.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cap):
            os.environ[var] = str(cap)
    sys.path.insert(0, str(SRC))


def _openblas() -> tuple[str | None, int | None]:
    """(config string, runtime thread count) of the OpenBLAS numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads and get_config:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout, not a clone
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(**extra) -> dict:
    import numpy as np
    import scipy

    config, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        **extra,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- running points ---------------------------------------------------------


def write_configs(pool: list[dict], cfg_dir: Path) -> list[Path]:
    import yaml

    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(pool):
        path = cfg_dir / f"point-{i:04d}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        paths.append(path)
    return paths


def measure_setup(cfg_dir: Path, reps: int = SETUP_REPS) -> list[tuple[float, float]]:
    """Wall times of `reps` pairs of fresh interpreters: one that imports the
    CLI and loads every config of the run, then one that runs SETUP_REF_CODE,
    the host reference for set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def timed(*args: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *args], env=env, cwd=ROOT, check=True,
                       timeout=60)
        return time.perf_counter() - t0

    return [(timed(SETUP_CODE, str(cfg_dir)), timed(SETUP_REF_CODE)) for _ in range(reps)]


class PointRunner:
    """Runs points through cli.execute, timing each with a `bench.point` span
    of the given tracer, and checks each output after its span ends.

    With `goldens` None (while goldens are recorded) only the checks that need
    no golden run."""

    def __init__(self, cli, out_dir: Path, goldens: dict | None):
        import checks
        from workloads import point_key

        self.cli, self.out_dir, self.goldens = cli, out_dir, goldens
        self.checks, self.point_key = checks, point_key
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, cfg: dict, tracer, point_id: int) -> dict:
        for name in os.listdir(self.out_dir):
            os.remove(self.out_dir / name)
        tracer.point = point_id
        error = results = None
        idx = tracer.begin("bench.point")
        try:
            results = self.cli.execute(cfg, str(self.out_dir))["results"]
        except Exception as exc:  # a failed point; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = tracer.end(idx)
            tracer.point = None
        key = self.point_key(cfg)
        if self.goldens is None:
            problems = ([] if results is None
                        else self.checks.check_model(cfg, results, str(self.out_dir)))
        else:
            problems = self.checks.check_point(cfg, results, str(self.out_dir),
                                               self.goldens.get(key), error)
        written = sum(os.path.getsize(self.out_dir / n) for n in os.listdir(self.out_dir))
        return {"point": point_id, "key": key, "model": cfg["model"], "s": seconds,
                "ok": results is not None and not problems, "error": error,
                "problems": problems, "results": results, "bytes": written}


def host_reference(dim: int):
    """A fixed computation that does not use the program: a dense eigvalsh of
    dimension `dim`, a batch of small ones, small einsums with path search and
    a YAML parse, the kinds of work the workloads do. Returns a function that
    times one pass."""
    import numpy as np
    import yaml

    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, dim, dim))
    big = z[0] + 1j * z[1]
    big = big + big.conj().T
    z = rng.standard_normal((2, 256, 8, 8))
    small = z[0] + 1j * z[1]
    small = small + small.conj().swapaxes(-1, -2)
    axes, blocks = rng.standard_normal((64, 3)), rng.standard_normal((3, 3, 4, 4))
    doc = yaml.safe_dump({"model": "spinchain", "params": {"n_spins": 6, "b_field": 1.5},
                          "time_grid": {"points": 100}, "basis_grid": {"n_theta": 20}})

    def once() -> float:
        t0 = time.perf_counter()
        np.linalg.eigvalsh(big)
        np.linalg.eigvalsh(small)
        for _ in range(20):
            np.einsum("ga,gb,abij->gij", axes, axes, blocks, optimize=True)
        for _ in range(5):
            yaml.safe_load(doc)
        return time.perf_counter() - t0

    once()
    return once


def run_for(runner: PointRunner, cfgs: list[dict], tracer, seconds: float,
            round_size: int, after_round=None) -> list[dict]:
    """Closed loop over whole rounds until `seconds` of point time and
    MIN_POINTS successes; `after_round` runs after each round, untimed.
    Fails, rather than report a short sample, after HARD_LIMIT_S."""
    records, busy, n_ok = [], 0.0, 0
    start = time.perf_counter()
    while busy < seconds or n_ok < MIN_POINTS or len(records) % round_size:
        if time.perf_counter() - start > HARD_LIMIT_S:
            raise SystemExit(
                f"error: stopped after {HARD_LIMIT_S:.0f} s with {len(records)} points "
                f"({n_ok} successful, {MIN_POINTS} needed, in whole rounds of "
                f"{round_size}); no metrics reported")
        i = len(records)
        rec = runner.run(cfgs[i % len(cfgs)], tracer, i)
        records.append(rec)
        busy += rec["s"]
        n_ok += rec["ok"]
        if after_round and len(records) % round_size == 0:
            after_round()
    return records


def run_fixed(runner: PointRunner, cfgs: list[dict], tracer) -> list[dict]:
    return [runner.run(cfg, tracer, i) for i, cfg in enumerate(cfgs)]


# -- metrics ----------------------------------------------------------------


def local_slowdowns(records: list[dict], ref: list[list[float]], round_size: int,
                    nominal: float) -> list[float]:
    """The host's slowdown around each record's round: the median time of the
    reference passes at the four round boundaries nearest to it (`ref[j]` holds
    the passes timed just before round j), over their nominal time."""
    out = []
    for r in records:
        k = r["point"] // round_size
        window = [t for bound in ref[max(k - 1, 0):k + 3] for t in bound]
        out.append(statistics.median(window) / nominal)
    return out


def end_to_end(records: list[dict], setup: list[tuple[float, float]],
               ref: list[list[float]], round_size: int,
               ref_nominal: float) -> tuple[dict, dict, dict]:
    """(metric values, sample counts, times as measured).

    Point times are scaled to the reference box's speed: each is divided by
    the host's slowdown around its round (local_slowdowns). The shared host's
    speed moves by 10-40% within seconds to minutes; the scaling keeps that
    out of comparisons between runs.

    setup_s is mostly interpreter start-up and imports, which that numpy-bound
    reference does not track. It is scaled pair by pair instead: the median of
    each set-up run's time over the reference interpreter's timed right after
    it, times SETUP_REF_NOMINAL_S.
    """
    slowdowns = local_slowdowns(records, ref, round_size, ref_nominal)
    scaled = [r["s"] / f for r, f in zip(records, slowdowns)]
    ok = sorted(s for r, s in zip(records, scaled) if r["ok"])
    ok_raw = sorted(r["s"] for r in records if r["ok"])
    p90 = statistics.quantiles(ok, n=10)[-1]
    passes = [t for bound in ref for t in bound]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "points_per_s": len(ok) / sum(r["s"] for r in records),
        "point_s.p50": statistics.median(ok_raw),
        "point_s.p90": statistics.quantiles(ok_raw, n=10)[-1],
        "host_slowdown": statistics.median(passes) / ref_nominal,
        "setup_slowdown": statistics.median(r for _, r in setup) / SETUP_REF_NOMINAL_S,
    }
    values = {
        "setup_s": statistics.median(s / r for s, r in setup) * SETUP_REF_NOMINAL_S,
        "points_per_s": len(ok) / sum(scaled),
        "point_s.p50": statistics.median(ok),
        "point_s.p90": p90,
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(setup),
        "points_per_s": len(ok),
        "point_s.p50": len(ok),
        "point_s.p90": sum(s > p90 for s in ok),
        "failed_frac": len(records),
        "peak_rss_mb": 1,
        "host_slowdown": len(passes),
        "setup_slowdown": len(setup),
    }
    return values, counts, raw


LAYER_MODULES = ("cli", "model_spinchain", "model_emission", "model_ion",
                 "model_photon", "protocol", "measures", "states", "tensor")
RENAMED = {"states.BipartiteState.calls": "states.BipartiteState.constructions",
           "states.BipartiteState.s": "states.BipartiteState.validate_s"}


def per_layer(tracer, records: list[dict], overhead: float) -> dict:
    out = {}
    for name, rec in tracer.layers().items():
        for field, value in rec.items():
            key = f"{name}.{field}"
            out[RENAMED.get(key, key)] = value
    kernels = tracer.kernel_totals()
    for kernel, rec in kernels.items():
        for field, value in rec.items():
            out[f"kernel.{kernel}.{field}"] = value
    for mod in LAYER_MODULES:
        out[f"layer.{mod}.self_s"] = sum(
            v for k, v in out.items() if k.startswith(mod + ".") and k.endswith(".self_s"))
    out["layer.kernel.s"] = sum(rec["s"] for rec in kernels.values())
    out["cli.bytes_written"] = sum(r["bytes"] for r in records)
    out["trace.wall_s"] = sum(r["s"] for r in records)
    out["trace.overhead_frac"] = overhead
    return out


def install_layers(tracer):
    """Wrap the program's layers: every public function of each module, the
    marginal series and BipartiteState validation."""
    import importlib

    from discord_probe import protocol, states

    layers = {m: importlib.import_module(f"discord_probe.{m}") for m in LAYER_MODULES}
    tracer.install(layers, methods=[
        (protocol.EvolutionSpec, "marginal_series", "protocol.marginal_series"),
        (states.BipartiteState, "__post_init__", "states.BipartiteState"),
    ])


# -- entry point ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 results_path: Path | None = None, trace_points: int | None = None,
                 setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload. Returns {"summary", "lines", "record", "tracer"}: the
    final JSON object, the human-readable lines, everything measured, and the
    tracer; writes the last two as JSON to `results_path` when given."""
    import checks
    from discord_probe import cli
    from spans import Tracer
    from workloads import WORKLOADS

    spec = benchmark_spec()
    workload = WORKLOADS[name]
    pool = workload.pool(seed)
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        paths = write_configs(pool, run_dir / "configs")
        cfgs = [cli.load_config(str(p)) for p in paths]
        runner = PointRunner(cli, run_dir / "point", checks.load_goldens())
        # warm-up on the pool's last round (every stratum once): lazy numpy
        # and LAPACK set-up, and the allocator's first growth to each size
        round_size = len(workload.strata())
        for cfg in cfgs[-round_size:]:
            runner.run(cfg, Tracer(), -1)
        # points known to raise: run untimed, reported apart, not counted
        known = [runner.run(cfg, Tracer(), -1) for cfg in workload.known_failures()]

        lines = []
        if not trace:
            setup = measure_setup(run_dir / "configs", setup_reps)
            reference = host_reference(workload.reference_dim)
            tracer = Tracer()
            # two reference passes at each round boundary follow the host's speed
            ref = [[reference(), reference()]]
            records = run_for(runner, cfgs, tracer, seconds, round_size,
                              after_round=lambda: ref.append([reference(), reference()]))
            values, counts, raw = end_to_end(records, setup, ref, round_size,
                                             REF_NOMINAL_S[workload.reference_dim])
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units["failed_frac"] = "ratio"
            for metric, value in values.items():
                measured = f", {raw[metric]:.6g} as measured" if metric in raw else ""
                lines.append(f"  {metric:<14} {value:12.6g} {units[metric]:<6} "
                             f"(n={counts[metric]}{measured})")
            for factor in ("host_slowdown", "setup_slowdown"):
                lines.append(f"  {factor:<14} {raw[factor]:12.6g}        "
                             f"(n={counts[factor]})")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            extra = {"end_to_end": values, "counts": counts, "as_measured": raw,
                     "setup_runs": setup, "host_reference_s": ref}
        else:
            n = trace_points or workload.trace_points
            plain = Tracer()
            untraced = run_fixed(runner, cfgs[:n], plain)
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced = run_fixed(runner, cfgs[:n], tracer)
            finally:
                tracer.uninstall()
            wall_u = sum(r["s"] for r in untraced)
            wall_t = sum(r["s"] for r in traced)
            values = per_layer(tracer, traced, wall_t / wall_u - 1.0)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            records = untraced + traced
            lines.append(f"  traced {n} points: {wall_t:.3f} s, untraced {wall_u:.3f} s, "
                         f"overhead {values['trace.overhead_frac']:+.1%}")
            for key in sorted(k for k in values if k.startswith("layer.")):
                lines.append(f"  {key:<28} {values[key]:10.4f} s "
                             f"({values[key] / wall_t:6.1%} of traced wall)")
            extra = {"per_layer": values, "untraced_points_per_s": n / wall_u,
                     "traced_points_per_s": n / wall_t}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    summary = {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    env = environment(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                      points_in_pool=len(pool))
    if trace:
        env["tracing_overhead"] = values["trace.overhead_frac"]
    head = (f"workload {name} seed {seed}: {len(records)} points, {len(failed)} failed; "
            f"python {env['python']}, numpy {env['numpy']}, blas threads "
            f"{env['blas_threads']} of nproc {env['nproc']}")
    lines.insert(0, head)
    for r in failed[:5]:
        lines.append(f"  failed point {r['point']} ({r['model']}): "
                     f"{r['error'] or '; '.join(r['problems'])}")
    for cfg, r in zip(workload.known_failures(), known):
        lines.append(f"  known failure, untimed and not counted ({r['model']} "
                     f"{cfg['params']}): {r['error'] or 'completed'}"
                     f"{'; ' + '; '.join(r['problems']) if r['problems'] else ''}")
    record = {"environment": env, "summary": summary, "records": records,
              "known_failures": known, **extra}
    if results_path is not None:
        results_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(results_path), record)
    return {"summary": summary, "lines": lines, "record": record, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    prepare_imports()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), results)
    for line in out["lines"]:
        print(line)
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps(out["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
