"""Lazy package import: each check runs in a fresh interpreter, because
this process has long since imported every submodule.  And no library
symbol is reached only from the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adamskit

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: Library names that nothing in ``src/`` calls and no ``_EXPORTS`` entry
#: names, each kept for a caller outside the package.
REACHED_FROM_OUTSIDE = {
    "energy_change_of_variables",  # the benchmark's concentrate workload
    # Paper formulas that the tests check.
    "chain_bound_for_s",
    "iterated_constant",
    "near_extremal_power_trial",
    "measure_above",  # SampledFunction
    "p_norm_pth_power",  # SampledFunction
}

#: Modules that ``import adamskit.cli`` must not load; later changes that
#: add a module-level import of one of them fail here.
HEAVY = ("numpy", "adamskit.hardy", "adamskit.rearrange", "adamskit.moser1d", "adamskit.extremal")


def python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_code(code: str, *args: str) -> str:
    result = python("-c", code, *args)
    assert result.returncode == 0, result.stderr
    return result.stdout


MODULES_AFTER_COMMAND = """
import io, sys
from contextlib import redirect_stdout
from adamskit.cli import main
with redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m == "numpy" or m.startswith("adamskit"))))
"""


@pytest.mark.parametrize(
    "argv", [["t0"], ["level", "--m", "2", "--n", "4"], ["constants", "--m", "2", "--n", "4"]]
)
def test_light_commands_never_load_numpy(argv):
    modules = run_code(MODULES_AFTER_COMMAND, *argv).split()
    assert "numpy" not in modules
    assert modules == [f"adamskit{m}" for m in ("", ".cli", ".constants", ".errors", ".specfun")]


def test_sweep_skips_hardy_and_rearrange():
    modules = run_code(MODULES_AFTER_COMMAND, "extremal-sweep", "--n-from", "104", "--n-to", "106").split()
    assert "adamskit.extremal" in modules
    assert "adamskit.hardy" not in modules
    assert "adamskit.rearrange" not in modules


@pytest.mark.parametrize(
    "argv",
    [["cc", "--p", "2", "--family", "moser", "--a", "1000"], ["cc", "--p", "2", "--maximize"]],
    ids=["moser", "maximize"],
)
def test_cc_skips_hardy_and_rearrange(argv):
    # moser1d and profiles take a log-radial profile's evaluators from the
    # LogRadialRun that rearrange builds, never by importing rearrange.
    modules = run_code(MODULES_AFTER_COMMAND, *argv).split()
    assert "adamskit.moser1d" in modules
    assert "adamskit.hardy" not in modules
    assert "adamskit.rearrange" not in modules


def test_import_loads_no_submodule():
    out = run_code("import sys, adamskit; print(sorted(m for m in sys.modules if m.startswith('adamskit')))")
    assert out.strip() == "['adamskit']"


def test_every_export_resolves_to_its_submodule_object():
    out = run_code(
        """
import importlib, adamskit
names = dir(adamskit)
for name in adamskit.__all__:
    assert name in names, name
    if name == "__version__":
        continue
    owner = importlib.import_module("adamskit." + adamskit._EXPORTS[name])
    assert getattr(adamskit, name) is vars(owner)[name], name
namespace = {}
exec("from adamskit import *", namespace)
assert set(adamskit.__all__) <= set(namespace)
print(len(adamskit.__all__))
"""
    )
    assert int(out) == 42


def test_unknown_name_raises_attribute_error():
    out = run_code(
        """
import adamskit
try:
    adamskit.no_such_name
except AttributeError as exc:
    print(exc)
"""
    )
    assert out.strip() == "module 'adamskit' has no attribute 'no_such_name'"


def test_cli_import_stays_light():
    # -X importtime writes one stderr line per module the import loads.
    result = python("-X", "importtime", "-c", "import adamskit.cli")
    assert result.returncode == 0, result.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines() if "|" in line}
    assert "adamskit.cli" in loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_every_library_symbol_is_reached_from_the_library():
    """Each function, class and method defined in ``src/adamskit`` is loaded
    by name somewhere there, exported, or on ``REACHED_FROM_OUTSIDE``."""
    defined, loaded = set(), set()
    for path in (Path(SRC) / "adamskit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    unreached = defined - loaded - dunders - set(adamskit._EXPORTS) - REACHED_FROM_OUTSIDE
    assert not unreached, sorted(unreached)
