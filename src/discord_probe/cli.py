"""Config-driven experiment runner: `discord-probe run` / `discord-probe
sweep` with JSON summaries and CSV time series."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np
import yaml

from . import __version__, model_emission, model_ion, model_photon, model_spinchain
from .measures import BasisGrid
from .protocol import (
    EvolutionSpec,
    TimeGrid,
    WitnessBoundError,
    WitnessSeries,
    classical_correlation_witness,
    haar_average_estimate,
    run_local_detection,
    run_minimized_detection,
)
from .states import BipartiteState, computational_basis, zero_discord_state
from .tensor import BipartitionDims, kron


def _int(value) -> int:
    """Integral numbers only: 7.0 (a `--values` entry) passes; 7.9, "7", true do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """Finite numbers only: 1 and 1.5 pass; "1.5", true and YAML's .nan and
    .inf do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _bool(value) -> bool:
    """true/false, or 0/1 (a `--values` entry); not the string "false"."""
    if not isinstance(value, (bool, int, float)) or value not in (0, 1):
        raise ValueError(f"expected true/false or 0/1, got {value!r}")
    return bool(value)


def _choice(*options):
    def convert(value):
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value
    return convert


# model -> {params field: converter}. A runner passes on only the fields a
# config sets, so each default lives in the parameter class that takes it.
PARAMS = {
    "ion": {"omega": _float, "eta": _float, "nbar": _float, "t0": _float,
            "lamb_dicke_limit": _bool},
    "photon-cv": {"beta": _float, "delta_omega": _float, "omega0": _float, "t": _float,
                  "grid_span": _float, "grid_points": _int},
    "photon-dv": {"lam": _float, "theta": _float, "phase_rate": _float},
    "spinchain": {"n_spins": _int, "alpha": _float, "j0": _float, "b_field": _float,
                  "kT": _float},
    "emission": {"n_modes": _int, "half_bandwidth": _float, "structured": _bool},
    "haar": {"d_a": _int, "d_b": _int, "n_samples": _int},
    "generic": {"d_a": _int, "d_b": _int, "state": _choice("product", "random"),
                "generator": _choice("random", "noninteracting")},
}
# the sections every model takes; missing or null means all defaults
SECTIONS = {
    "time_grid": {"t_max": _float, "points": _int},
    "basis_grid": {"n_theta": _int, "n_phi": _int, "refine_rounds": _int},
}


class ConfigError(ValueError):
    pass


def _convert(converter, value, where: str):
    try:
        return converter(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fields(section, converters: dict, where: str) -> dict:
    """The fields a config section sets, each passed through its converter."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - converters.keys()
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown, key=str)} in {where}")
    return {k: _convert(converters[k], v, where) for k, v in section.items()}


def parse(cfg) -> dict:
    """The config with every value converted to the type its field takes, in
    new dicts (`cfg` is left as it is); raises ConfigError on the first value
    that cannot be. Ranges are left to the parameter classes."""
    top = _fields(cfg, dict.fromkeys(("model", "seed", "params", *SECTIONS),
                                     lambda v: v), "top level")
    model = _convert(_choice(*PARAMS), top.get("model"), "model")
    out = {"model": model, "seed": _convert(_int, top.get("seed", 0), "seed"),
           "params": _fields(top.get("params", {}), PARAMS[model], f"{model} params")}
    for name, converters in SECTIONS.items():
        section = top.get(name)
        out[name] = _fields({} if section is None else section, converters, name)
    return out


def load_config(path: str) -> dict:
    """The config as read (`parse` checks it), with seed and params defaulted."""
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    parse(cfg)
    cfg.setdefault("seed", 0)
    cfg.setdefault("params", {})
    return cfg


def _time_grid(cfg: dict, default_t_max: float, default_n: int = 200) -> TimeGrid:
    tg = cfg["time_grid"]
    return TimeGrid.linear(tg.get("t_max", default_t_max), tg.get("points", default_n))


def _atomic_write(path: str, text: str):
    """Writes `text` to a temporary file beside `path`, then renames it to
    `path`; on any failure the temporary file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, columns: dict):
    table = np.column_stack(list(columns.values()))
    rows = ("\n" + ",".join(["%.17g"] * len(columns))) * len(table)
    _atomic_write(path, ",".join(columns) + rows % tuple(table.ravel().tolist()) + "\n")


def _series_columns(series, **extra) -> dict:
    cols = {"time": series.times, "d_t": series.d_t, **extra}
    if series.bound_ref is not None:
        cols["bound"] = np.full(len(series.times), series.bound_ref)
    return cols


D_MAX_THRESHOLD = 1e-9  # a d_max (or max_tau_d) above this witnesses discord
D_MIN_THRESHOLD = 1e-6  # d_min above this witnesses discord
# Each runner returns (results, tables, verdict): `tables` maps a file name to
# its CSV columns, `verdict` is (witness key, bound key, discord threshold),
# or None for a model that computes no witness against a bound.


def _run_ion(cfg: dict):
    kw = cfg["params"]
    t0 = kw.pop("t0", None)
    p = model_ion.IonParams(**kw)
    if t0 is None:
        t0 = float(np.pi / (2 * p.omega0))
    grid = _time_grid(cfg, 4 * np.pi / p.omega0)
    series = model_ion.simulated_local_distance(p, t0, grid)
    analytic = model_ion.analytic_local_distance(p, t0, grid.samples)
    return ({"d_max": series.d_max, "argmax_time": series.argmax_time,
             "D": model_ion.analytic_disturbance(p, t0), "bound": series.bound_ref,
             "t0": t0},
            {"series.csv": _series_columns(series, d_analytic=analytic)},
            ("d_max", "D", D_MAX_THRESHOLD))


def _run_photon_cv(cfg: dict):
    kw = cfg["params"]
    if "t" in kw:
        kw["t_prep"] = kw.pop("t")
    p = model_photon.PhotonParams(**kw)
    grid = _time_grid(cfg, 6.0 / p.delta_omega, 400)
    disturbance = model_photon.analytic_disturbance_photon(p)
    series = WitnessSeries(grid.samples,
                           model_photon.simulated_local_distance_photon(p, grid.samples),
                           bound_ref=disturbance)
    closed = model_photon.analytic_local_distance_photon(p, grid.samples)
    return ({"max_tau_d": series.d_max, "D": disturbance,
             "closed_form_max": model_photon.analytic_local_distance_photon(p, p.t_prep)},
            {"series.csv": _series_columns(series, d_closed_form=closed)},
            ("max_tau_d", "D", D_MAX_THRESHOLD))


def _run_photon_dv(cfg: dict):
    kw = cfg["params"]
    rate = {"rate": kw.pop("phase_rate")} if "phase_rate" in kw else {}
    state = model_photon.build_discrete_state(model_photon.DiscreteAncillaParams(**kw))
    evo = model_photon.channel_phase_evolution(**rate)
    grid = _time_grid(cfg, 2 * np.pi, 100)
    series = run_minimized_detection(state, evo, grid, BasisGrid(**cfg["basis_grid"]))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cc_series, cc_fired = classical_correlation_witness(state, hadamard, evo, grid)
    return ({"d_min": series.d_max, "D_min": series.bound_ref,
             "discord_witnessed": bool(series.d_max > D_MIN_THRESHOLD),
             "classical_correlation_detected": cc_fired},
            {"series.csv": _series_columns(series),
             "classical_series.csv": _series_columns(cc_series)},
            ("d_min", "D_min", D_MIN_THRESHOLD))


def _run_spinchain(cfg: dict):
    p = model_spinchain.ChainParams(**cfg["params"])
    default = p.default_time_grid()
    grid = _time_grid(cfg, default.samples[-1], len(default.samples))
    spec = model_spinchain.spectral(p)
    if p.kT > 0:
        series, d_min_bound = model_spinchain.thermal_detection(
            p, grid, BasisGrid(**cfg["basis_grid"]), spec
        )
        return ({"d_min": series.d_max, "D_min": d_min_bound,
                 "gap": float(spec.energies[1] - spec.energies[0])},
                {"series.csv": _series_columns(series)},
                ("d_min", "D_min", D_MIN_THRESHOLD))
    res = model_spinchain.ground_state_detection(p, grid, spec)
    pops = sorted((c for _, c, _ in model_spinchain.excitation_overlaps(p, spec)),
                  reverse=True)
    return ({"d_max": res.series.d_max, "argmax_time": res.series.argmax_time,
             "negativity": res.negativity, "gap": res.gap,
             "top3_excitation_support": sum(pops[:3])},
            {"series.csv": _series_columns(res.series, d_magnetization=res.d_mag)},
            ("d_max", "negativity", D_MAX_THRESHOLD))


def _run_emission(cfg: dict):
    kw = cfg["params"]
    structured = kw.pop("structured", False)
    p = model_emission.EmissionParams(**kw)
    if structured:
        p = model_emission.structured_params(p)
    t0s = _time_grid(cfg, 3.0 / 1.0, 31).samples[1:]
    if len(t0s) == 0:
        raise ValueError("emission time grid needs at least 2 points: its "
                         "nonzero samples are the preparation times")
    neg = model_emission.transient_negativity(p, t0s)
    sig = model_emission.emission_local_signal(p, t0s, 2 * t0s)
    return ({"max_negativity": float(np.max(neg)), "max_local_signal": float(np.max(sig)),
             "rate": p.rate},
            {"series.csv": {"time": t0s, "negativity": neg, "local_signal": sig}}, None)


def _random_discordant_state(d_a: int, d_b: int, seed: int) -> BipartiteState:
    rng = np.random.default_rng(seed)
    dim = d_a * d_b
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    rho = rho / np.trace(rho).real
    return BipartiteState(rho, BipartitionDims(d_a, d_b))


def _run_haar(cfg: dict):
    pr = cfg["params"]
    state = _random_discordant_state(pr.get("d_a", 2), pr.get("d_b", 2), cfg["seed"])
    mean, std_error, predicted = haar_average_estimate(
        state, pr.get("n_samples", 10000), cfg["seed"] + 1
    )
    return {"mean": mean, "std_error": std_error, "predicted": predicted}, {}, None


def _run_generic(cfg: dict):
    pr = cfg["params"]
    d_a, d_b = pr.get("d_a", 2), pr.get("d_b", 2)
    rng = np.random.default_rng(cfg["seed"])
    if pr.get("state", "random") == "product":
        rho_b = np.diag(rng.dirichlet(np.ones(d_b))).astype(complex)
        state = zero_discord_state(
            [1.0] + [0.0] * (d_a - 1), computational_basis(d_a), [rho_b] * d_a
        )
    else:
        state = _random_discordant_state(d_a, d_b, cfg["seed"])
    if pr.get("generator", "random") == "random":
        z = rng.standard_normal((d_a * d_b,) * 2) + 1j * rng.standard_normal(
            (d_a * d_b,) * 2
        )
        h = (z + z.conj().T) / 2
    else:  # noninteracting
        za = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        zb = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        h = kron((za + za.conj().T) / 2, np.eye(d_b)) + kron(
            np.eye(d_a), (zb + zb.conj().T) / 2
        )
    grid = _time_grid(cfg, 10.0, 200)
    series = run_local_detection(state, EvolutionSpec(hamiltonian=h), grid)
    return ({"d_max": series.d_max, "D": series.bound_ref,
             "argmax_time": series.argmax_time},
            {"series.csv": _series_columns(series)}, ("d_max", "D", D_MAX_THRESHOLD))


_RUNNERS = {
    "ion": _run_ion,
    "photon-cv": _run_photon_cv,
    "photon-dv": _run_photon_dv,
    "spinchain": _run_spinchain,
    "emission": _run_emission,
    "haar": _run_haar,
    "generic": _run_generic,
}


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def execute(cfg: dict, out_dir: str) -> dict:
    """Parses and runs `cfg`, then makes `out_dir`, so a run that raises
    leaves nothing; writes its tables and summary.json, and returns the
    summary with the run's verdict line."""
    parsed = parse(cfg)
    results, tables, verdict = _RUNNERS[parsed["model"]](parsed)
    os.makedirs(out_dir, exist_ok=True)
    for name, columns in tables.items():
        _write_csv(os.path.join(out_dir, name), columns)
    summary = {
        "config_hash": _config_hash(cfg),
        "model": parsed["model"],
        "seed": parsed["seed"],
        "version": __version__,
        "results": results,
    }
    _atomic_write(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
    )
    return {**summary, "verdict": _verdict(results, verdict)}


def _verdict(results: dict, verdict) -> str:
    if verdict is None:
        return "run complete"
    witness, bound, threshold = verdict
    if results[witness] > threshold:
        return (
            f"discord witnessed: {witness} = {results[witness]:.6g} <= "
            f"{bound} = {results[bound]:.6g}"
        )
    return "no discord witnessed"


def _numbers(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="discord-probe")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", default="results")
    sub.choices["sweep"].add_argument("--axis", required=True)
    sub.choices["sweep"].add_argument("--values", required=True, type=_numbers,
                                      help="comma-separated numbers")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "run":
            print(execute(cfg, args.out_dir)["verdict"])
            return 0
        points = []
        for val in args.values:
            sub_cfg = {**cfg, "params": {**cfg["params"], args.axis: val}}
            parse(sub_cfg)  # a bad value stops the sweep before any point runs
            points.append((val, sub_cfg))
        rows, failed = [], 0
        for i, (val, sub_cfg) in enumerate(points):
            point_dir = os.path.join(args.out_dir, f"point-{i:03d}")
            try:
                results = execute(sub_cfg, point_dir)["results"]
            except ValueError as exc:  # a NaN row; the other points still run
                print(f"model error at {args.axis} = {val:g}: {exc}", file=sys.stderr)
                results, failed = {}, failed + 1
            rows.append((val, results))
        keys = sorted({k for _, r in rows for k, v in r.items()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)})
        cols = {args.axis: [v for v, _ in rows]}
        for k in keys:
            cols[k] = [float(r.get(k, float("nan"))) for _, r in rows]
        os.makedirs(args.out_dir, exist_ok=True)  # no point may have made it
        _write_csv(os.path.join(args.out_dir, "sweep.csv"), cols)
        print(f"sweep complete: {len(rows)} points over {args.axis}"
              + (f", {failed} failed" if failed else ""))
        return 4 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WitnessBoundError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an output path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
