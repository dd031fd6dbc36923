"""flexrsa reaches scipy through one door: `lp_driver._load_core`, which
loads HiGHS's compiled bindings alone. Any other import of scipy, even under
TYPE_CHECKING or inside a function, is found here by reading the import
statements, instead of showing up later as start-up time and memory."""

import ast
import glob
import os

import pytest

import flexrsa

ALLOWED = {("lp_driver", "_load_core")}
DYNAMIC = ("import_module", "__import__")  # calls whose target is not literal


def scipy_import_sites(source: str) -> set:
    """The enclosing function (None at module level) of each import of a
    scipy module in `source`, and of each dynamic import call, whatever it
    imports."""
    sites = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            modules = []
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module]
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                sites.add(function)
            if isinstance(child, ast.Call):
                called = child.func
                name = getattr(called, "attr", getattr(called, "id", ""))
                if name in DYNAMIC:
                    sites.add(function)
            visit(child, inner)

    visit(ast.parse(source), None)
    return sites


def test_only_load_core_imports_scipy():
    found = set()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(flexrsa.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)[:-3]
            found |= {(module, f) for f in scipy_import_sites(fh.read())}
    assert found == ALLOWED


@pytest.mark.parametrize(
    "source, sites",
    [
        ("from scipy import sparse\n", {None}),
        ("import scipy.sparse as sp\n", {None}),
        ("if TYPE_CHECKING:\n    from scipy import sparse\n", {None}),
        ("def f():\n    from scipy.optimize import milp\n", {"f"}),
        ("def g():\n    return importlib.import_module(NAME)\n", {"g"}),
        ("import numpy\nfrom .milp import Rows\nimport scipyish\n", set()),
    ],
    ids=["from", "dotted", "type-checking", "in-function", "dynamic", "none"],
)
def test_scan_finds_every_form(source, sites):
    assert scipy_import_sites(source) == sites
