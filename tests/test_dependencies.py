"""Every third-party module the tests import is declared in pyproject.toml,
as a dependency or in the `test` extra, so `pip install -e .[test]` is
enough to run them.  The test files are parsed, not imported."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def imported_modules(path):
    """The top-level names of the modules `path` imports, absolute
    imports only."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def declared_distributions():
    """The distribution names in `dependencies` and the `test` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9._-]+", spec)[0].lower() for spec in specs}


def test_every_module_the_tests_import_is_declared():
    files = sorted(TESTS.glob("*.py"))
    known = (set(sys.stdlib_module_names) | {"idealreg"}
             | {path.stem for path in files} | declared_distributions())
    undeclared = {
        (path.name, name)
        for path in files
        for name in imported_modules(path)
        if name.lower() not in known
    }
    assert not undeclared, f"imported but not declared: {sorted(undeclared)}"
