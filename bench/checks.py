"""Per-point output checks, run outside the timed region.

Three kinds of check, each returning a list of problems (empty: passed):

- invariants: the witness never exceeds its bound (d <= D, d_min <= D_min);
- closed forms where the model has one (ion analytic series and disturbance,
  photon-cv continuum series);
- golden results recorded at the commit that defined the benchmark, for
  everything else. Minimized quantities are checked one-sided, so a better
  minimizer is not flagged. A point that raises passes only if its golden
  recorded the same error, and a point with no golden fails.

Tolerances are those of the acceptance gate (`tests/test_acceptance.py`).
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

WITNESS_TOL = 1e-9    # d <= D, pure-state and identity checks (criteria 05, 06, 08)
ION_TOL = 1e-6        # simulated vs analytic ion series (criterion 03)
PHOTON_TOL = 1e-3     # discretized vs continuum photon series (criterion 04)
GOLDEN_TOL = 1e-9

# result keys minimized over local bases: only an increase is a regression
MINIMIZED = {"d_min", "D_min"}
# argmax locations flip between near-equal samples under rounding changes
UNCHECKED = {"argmax_time"}

# (witness, bound) pairs per model; the first pair whose keys are present applies
WITNESS_BOUND = {
    "ion": [("d_max", "D")],
    "photon-cv": [("max_tau_d", "D")],
    "photon-dv": [("d_min", "D_min")],
    "spinchain": [("d_min", "D_min"), ("d_max", "negativity")],
    "generic": [("d_max", "D")],
}


def load_goldens(path: Path = GOLDENS) -> dict:
    with open(path) as fh:
        return json.load(fh)["points"]


def _read_csv(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def check_invariants(cfg: dict, results: dict) -> list[str]:
    for w, b in WITNESS_BOUND.get(cfg["model"], []):
        if w in results and b in results:
            if not results[w] <= results[b] + WITNESS_TOL:
                return [f"witness {w} = {results[w]!r} exceeds bound {b} = {results[b]!r}"]
            return []
    return []


def check_closed_form(cfg: dict, results: dict, out_dir: str) -> list[str]:
    problems = []
    if cfg["model"] == "ion":
        cols = _read_csv(os.path.join(out_dir, "series.csv"))
        dev = max(abs(a - b) for a, b in zip(cols["d_t"], cols["d_analytic"]))
        if not dev <= ION_TOL:
            problems.append(f"ion series deviates from closed form by {dev:.3e}")
        dev = abs(results["D"] - results["bound"])
        if not dev <= ION_TOL:
            problems.append(f"ion disturbance deviates from closed form by {dev:.3e}")
    elif cfg["model"] == "photon-cv":
        cols = _read_csv(os.path.join(out_dir, "series.csv"))
        dev = max(abs(a - b) for a, b in zip(cols["d_t"], cols["d_closed_form"]))
        if not dev <= PHOTON_TOL:
            problems.append(f"photon series deviates from closed form by {dev:.3e}")
    return problems


def check_golden(results: dict, golden: dict | None) -> list[str]:
    if golden is None:
        return ["no golden result recorded for this point"]
    if "error" in golden:  # a point that used to raise and now completes
        return []
    problems = []
    for key, want in golden["results"].items():
        if key in UNCHECKED:
            continue
        got = results.get(key)
        if isinstance(want, bool) or want is None:
            ok = got == want
        elif got is None or isinstance(got, bool) or not math.isfinite(got):
            ok = False
        elif key in MINIMIZED:
            ok = got <= want + GOLDEN_TOL
        else:
            ok = abs(got - want) <= GOLDEN_TOL
        if not ok:
            problems.append(f"{key} = {got!r}, golden {want!r}")
    return problems


def check_error(error: str, golden: dict | None) -> list[str]:
    """A point that raised passes only if its golden recorded the same error."""
    if golden is None:
        return [f"raised {error}; no golden result recorded for this point"]
    if golden.get("error") != error:
        return [f"raised {error}; golden {golden.get('error', 'completed')}"]
    return []


def check_model(cfg: dict, results: dict, out_dir: str) -> list[str]:
    """The checks that need no golden: invariants and closed forms."""
    return check_invariants(cfg, results) + check_closed_form(cfg, results, out_dir)


def check_point(cfg: dict, results: dict | None, out_dir: str, golden: dict | None,
                error: str | None = None) -> list[str]:
    """All checks for one point; `results` is None when the point raised `error`."""
    if results is None:
        return check_error(error, golden)
    return check_model(cfg, results, out_dir) + check_golden(results, golden)
