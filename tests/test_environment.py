"""flexrsa reads no environment variable: every setting is an argument, a
`SolverConfig` field or a CLI option, so that a run is decided by what its
command line says. Any read of `os.environ` or `os.getenv`, in whatever form,
is found here by reading the source, instead of as a knob that only some
machines set."""

import ast
import glob
import os

import pytest

import flexrsa

NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """The line of each use of `os.environ`, `os.getenv` (or their bytes
    forms) in `source`, through an attribute or a `from os import`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in NAMES for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_flexrsa_reads_no_environment_variable():
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(flexrsa.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines = environment_reads(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert found == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import os\nos.environ.get('X')\n", [2]),
        ("import os\npath = os.environ['X']\n", [2]),
        ("import os\nos.getenv('X', '')\n", [2]),
        ("import os as o\n\ndef f():\n    return o.environ\n", [4]),
        ("from os import environ, path\n", [1]),
        ("from os import getenv as ge\n", [1]),
        ("import os\nos.path.join('a', 'b')\nenviron = {}\n", []),
    ],
    ids=["get", "item", "getenv", "aliased-in-function", "from-import", "from-import-as",
         "none"],
)
def test_scan_finds_every_form(source, lines):
    assert environment_reads(source) == lines
