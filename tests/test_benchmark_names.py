"""The per-layer names of BENCHMARK.json name functions the program defines.

`bench/run.py --trace 1` wraps every public function of its layer modules
and looks each per-layer name up among the wrapped spans, so a rename that
leaves a stale name behind raises there. This static check reads the names
and the layer list and fails on the same rename without running the
benchmark.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _layer_modules() -> tuple:
    """LAYER_MODULES of bench/run.py, read without importing the harness."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYER_MODULES" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no LAYER_MODULES")


LAYERS = _layer_modules()
# spans the harness wraps by (class, method) rather than by module function
METHOD_SPANS = {
    "states.BipartiteState": ("states", "BipartiteState", "__post_init__"),
    "protocol.marginal_series": ("protocol", "EvolutionSpec", "marginal_series"),
}
# per-layer values the harness computes itself, not spans
HARNESS_VALUES = {"cli.bytes_written"}
SPAN_NAMES = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                     if name.split(".", 1)[0] in LAYERS and name not in HARNESS_VALUES})


def test_layer_modules_import():
    for mod in LAYERS:
        importlib.import_module(f"discord_probe.{mod}")
    assert SPAN_NAMES


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_span_names_a_public_function(span):
    if span in METHOD_SPANS:
        mod, cls, attr = METHOD_SPANS[span]
        owner = getattr(importlib.import_module(f"discord_probe.{mod}"), cls)
        assert inspect.isfunction(vars(owner).get(attr)), f"{cls}.{attr} is gone"
        return
    mod, attr = span.split(".")
    module = importlib.import_module(f"discord_probe.{mod}")
    obj = vars(module).get(attr)
    assert not attr.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (
        f"{span} is not a public function defined in discord_probe.{mod}")
