"""The benchmark harness in bench/ reaches into idealreg by name: the tracer
wraps the functions listed in `bench/tracing.py`, and `bench/run.py`
reports `fields._rat` as the rational backend.  A renamed or deleted name
breaks only `bench/run.py --trace` and `bench/selftest.py`, so each one is
resolved here.  The bench files are parsed, not imported or edited."""

import ast
import importlib
from pathlib import Path

from idealreg import cli, fields

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(filename, name):
    """The literal assigned to `name` at the top level of a bench file."""
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in bench/{filename}")


def _module(name):
    return importlib.import_module(f"idealreg.{name}")


def test_names_the_benchmark_traces_resolve():
    probes = _literal("tracing.py", "PROBES")
    assert probes
    originals = []
    for modname, attr, _kind in probes:
        owner = _module(modname)
        if "." in attr:  # Class.method, wrapped in the class's own dict
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{modname}.{cls_name}.{attr}"
        fn = getattr(owner, attr)
        assert callable(fn), f"{modname}.{attr}"
        originals.append(fn)
    for modname, attr in _literal("selftest.py", "BY_NAME"):
        # a by-name import is traced only when it is a probed function
        ref = getattr(_module(modname), attr)
        assert any(ref is fn for fn in originals), f"{modname}.{attr}"
    for modname, attr in _literal("tracing.py", "LRU_CACHES"):
        assert hasattr(getattr(_module(modname), attr), "cache_info")
    for cmd in _literal("tracing.py", "CLI_COMMANDS"):
        assert cmd in cli.main.commands
    rat = fields._rat
    assert rat.__module__ and rat.__qualname__
