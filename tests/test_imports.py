import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import sys
import gausscap as gc
import numpy as np
spec = gc.ChannelSpec.beam_splitter(0.85, gc.squeezed_thermal_state(1.0, 0.5))
gc.evaluate_bounds(spec, 2.0)
gc.monte_carlo_verify("wc-chain-bs", 5)
gc.monte_carlo_verify("cqepi-amp", 5)
state = gc.random_gaussian_state(16, 5.0, 1.5, seed=3)
s, d = gc.williamson(state)
gc.purify(state)
print("scipy" in sys.modules)
print(float(abs(s.data @ np.diag(d) @ s.data.T - state.data).max() / abs(state.data).max()))
"""


def _run(script: str) -> str:
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout


def test_bounds_and_campaigns_do_not_load_scipy():
    loaded, residual = _run(_SCRIPT).splitlines()
    # bounds, campaigns, williamson and purify all run on numpy alone
    assert loaded == "False"
    assert float(residual) < 1e-12


_CAMPAIGN_SCRIPT = """
import sys
import gausscap as gc
spec = gc.ChannelSpec.beam_splitter(0.85, gc.squeezed_thermal_state(1.0, 0.5))
gc.evaluate_bounds(spec, 2.0)
gc.monte_carlo_verify("wc-chain-bs", 5)
gc.monte_carlo_verify("cqepi-amp", 5)
print("concurrent.futures" in sys.modules)
"""


def test_single_chunk_campaigns_do_not_load_concurrent_futures():
    assert _run(_CAMPAIGN_SCRIPT).strip() == "False"


# The modules that a fresh interpreter loads past numpy: first for the standard-library modules that the
# package imports today, then for the benchmark's set-up code, an import and one bound point.
_STDLIB_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import __future__, copy, dataclasses
print(" ".join(sorted(set(sys.modules) - before)))
"""
_SETUP_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import gausscap as gc
gc.evaluate_bounds(gc.ChannelSpec.beam_splitter(0.85, gc.thermal_state(1.0)), 1.0)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_setup_loads_no_module_beyond_numpy_and_the_package():
    # import time is the benchmark's set-up cost: json, argparse and the command line stay unloaded until used
    allowed = set(_run(_STDLIB_SCRIPT).split())
    loaded = set(_run(_SETUP_SCRIPT).split())
    extra = {name for name in loaded - allowed if name.partition(".")[0] not in ("numpy", "gausscap")}
    assert extra == set()
    assert {"json", "argparse", "gausscap.cli"}.isdisjoint(loaded)


def _imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module, deferred ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set().union(*map(_imported_packages, (_ROOT / "src" / "gausscap").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"gausscap"}
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in project["dependencies"]}
    assert third_party == declared == {"numpy"}



_PACKAGE = sorted((_ROOT / "src" / "gausscap").glob("*.py"))
_MODULES = [p for p in _PACKAGE if p.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    """Names a tree loads, attributes it reads and names it imports from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree, imported = _tree(path), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    assert imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} == set()


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    tree = _tree(path)
    elsewhere = set().union(*(_referenced(_tree(p)) for p in _PACKAGE if p != path))
    unreferenced = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            # in its own module, a name counts only outside its own definition
            if node.name not in elsewhere.union(*(_referenced(other) for other in tree.body if other is not node)):
                unreferenced.append(node.name)
    assert unreferenced == []


# Each library layer may import only the layers below it: core < channels < {capacities, epi}.
_LOWER_LAYERS = {
    "core.py": set(),
    "channels.py": {"core"},
    "capacities.py": {"core", "channels"},
    "epi.py": {"core", "channels"},
}


def _package_imports(path: Path) -> set[str]:
    """The gausscap modules a module imports, relatively or absolutely, deferred imports included."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("gausscap"):
            names.update([node.module.partition(".")[2]] if "." in node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("gausscap."))
    return {name.partition(".")[0] for name in names}


@pytest.mark.parametrize("name", sorted(_LOWER_LAYERS))
def test_layers_import_only_lower_layers(name):
    assert _package_imports(_ROOT / "src" / "gausscap" / name) <= _LOWER_LAYERS[name]


def test_cli_reads_only_exported_names():
    # the front end takes package names through ``from . import ...`` alone, and only names __init__ exports
    exported = {alias.asname or alias.name for node in _tree(_ROOT / "src" / "gausscap" / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    taken = []
    for node in ast.walk(_tree(_ROOT / "src" / "gausscap" / "cli.py")):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "gausscap" for alias in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "gausscap"):
            assert (node.level, node.module) == (1, None), ast.unparse(node)
            taken += [alias.name for alias in node.names]
    assert taken and set(taken) <= exported, set(taken) - exported


def _is_member(node: ast.AST) -> bool:
    """Whether a node reads ``Inequality.<NAME>``."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Inequality"


def test_epi_names_families_only_in_its_table_and_checks():
    # each family's facts live in one row of ``_FAMILIES``; a branch on family identity or family group elsewhere
    # would spread them over the module again
    from gausscap.epi import _FAMILIES, Inequality

    assert set(_FAMILIES) == set(Inequality)
    tree = _tree(_ROOT / "src" / "gausscap" / "epi.py")
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["_FAMILIES"]:
            allowed.update(id(key) for key in node.value.keys)
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
            allowed.update(id(inner) for inner in ast.walk(node))
        elif isinstance(node, ast.Assign):
            # no module-level tuple, list or set of members
            assert not any(_is_member(inner) for inner in ast.walk(node.value)), ast.unparse(node)
    stray = [ast.unparse(node) for node in ast.walk(tree) if _is_member(node) and id(node) not in allowed]
    assert stray == []
    assert sum(isinstance(node, ast.FunctionDef) and node.name.startswith("check_") for node in tree.body) == 6
