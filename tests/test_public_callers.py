"""Every module-level function or class of the package, and every public
method or property of its classes, has a caller.

A public name defined in `src/discord_probe/<module>.py` (not `__init__.py`)
must be used by another statement of the package, imported by the
acceptance gate (by name, or as `module.name` of a module it imports), named
in a `per_layer` entry of BENCHMARK.json, or be `cli.main`, the console entry
point. A private function (`_name`) must be used by another statement of the
package. A public method or property of a top-level class must be read as an
attribute (`x.name`) somewhere in the package or the acceptance gate, outside
its own body. The tests do not count: what only the tests call belongs in
`tests/oracles.py`. This static check reads the source with `ast` and names
each stray definition.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "discord_probe"
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
           if p.name != "__init__.py"}
ENTRY_POINTS = {("cli", "main")}


def _definitions(tree: ast.Module, private: bool = False) -> set:
    """The names of the public top-level functions and classes, or of the
    private top-level functions."""
    kinds = ast.FunctionDef if private else (ast.FunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds)
            and node.name.startswith("_") == private}


def _imports(tree: ast.Module) -> tuple:
    """{local name: (module, name)} for `from .m import name` and {local name:
    module} for `from . import m`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    return names, modules


def _uses(mod: str, tree: ast.Module) -> set:
    """The (module, name) pairs that the statements of `mod` use, each
    top-level definition's use of its own name left out."""
    names, modules = _imports(tree)
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        skip = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id != skip:
                if node.id in names:
                    used.add(names[node.id])
                elif node.id in own:
                    used.add((mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
    return used


def _acceptance_imports() -> set:
    """The (module, name) pairs the acceptance gate imports from the
    package, by name or as an attribute of an imported module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    out, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "discord_probe":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "discord_probe."):
            out |= {(node.module.split(".", 1)[1], a.name) for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    return out


def _per_layer_names() -> set:
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {tuple(e["name"].split(".")[:2]) for e in entries}


def _stray(callers: set, private: bool) -> str:
    defined = {(m, name) for m, t in MODULES.items() for name in _definitions(t, private)}
    return ", ".join(sorted(f"{m}.{name}" for m, name in defined - callers))


def _methods(tree: ast.Module):
    """(class, method node) for the public methods and properties of the
    top-level classes."""
    return [(cls.name, f) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.FunctionDef)
            and not f.name.startswith("_")]


def _attributes(node: ast.AST) -> Counter:
    """How often each name is read or written as an attribute under `node`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _stray_methods(modules: dict, gate: ast.Module) -> str:
    seen = sum((_attributes(t) for t in (*modules.values(), gate)), Counter())
    return ", ".join(sorted(f"{m}.{cls}.{f.name}" for m, t in modules.items()
                            for cls, f in _methods(t)
                            if seen[f.name] == _attributes(f)[f.name]))


def test_every_public_definition_has_a_caller():
    callers = set().union(*(_uses(m, t) for m, t in MODULES.items()),
                          _acceptance_imports(), _per_layer_names(), ENTRY_POINTS)
    stray = _stray(callers, private=False)
    assert not stray, f"public definitions that nothing outside the tests calls: {stray}"


def test_every_private_function_has_a_caller():
    stray = _stray(set().union(*(_uses(m, t) for m, t in MODULES.items())), private=True)
    assert not stray, f"private functions that nothing in the package calls: {stray}"


def test_a_definition_is_not_its_own_caller():
    tree = ast.parse("def f():\n    return f()\n\n\ndef g():\n    return h\n"
                     "\n\nh = 1\n")
    assert _uses("m", tree) == set()
    assert _uses("m", ast.parse("def f():\n    pass\n\n\nx = f\n")) == {("m", "f")}


def test_every_public_method_has_a_caller():
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    stray = _stray_methods(MODULES, gate)
    assert not stray, f"methods and properties that nothing outside the tests reads: {stray}"


def test_a_method_is_not_its_own_caller():
    # a method that only calls itself, or only a test calls, is stray; one
    # read as an attribute by another statement or by the gate is not
    tree = ast.parse("class A:\n    def f(self):\n        return self.f()\n\n"
                     "    def g(self):\n        return 1\n\n"
                     "    @property\n    def h(self):\n        return self.g()\n\n"
                     "    def _p(self):\n        return 0\n")
    empty = ast.parse("")
    assert _stray_methods({"m": tree}, empty) == "m.A.f, m.A.h"
    assert _stray_methods({"m": tree}, ast.parse("A().f()\nx = a.h\n")) == ""
