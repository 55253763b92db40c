"""The internal cross-checks of `idealreg` are not `assert` statements,
which ``python -O`` strips, and a tripped one still raises under -O.  The
library files are parsed, not imported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import idealreg

PACKAGE = Path(idealreg.__file__).resolve().parent


def test_no_assert_statement_in_the_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements, stripped by python -O: {found}"


def _unused_imports(path):
    """`file:line name` of each name an import in `path` binds and the
    file never reads, but for lines marked ``# noqa: F401`` that name the
    bench/ script holding the name."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                line = lines[alias.lineno - 1]
                if name in used or ("# noqa: F401" in line and "bench/" in line):
                    continue
                found.append(f"{path.name}:{alias.lineno} {name}")
    return found


def test_no_unused_import_in_the_library():
    found = [f for path in sorted(PACKAGE.glob("*.py")) for f in _unused_imports(path)]
    assert not found, f"imported names never used: {found}"


def test_only_quotients_reads_the_raise_entries_of_the_index():
    # the layout of `GeneratorIndex.raises` and `twice` is known to one
    # module; others ask the index (`covered`, `colon`, `linear`)
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "quotients.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("raises", "twice")
    ]
    assert not found, f"raise entries read outside quotients.py: {found}"


def test_only_degree_piece_reads_the_piece_guard():
    # the one function that builds degree pieces decides their size, so
    # no sweep refuses a piece it never builds or admits one past the guard
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "graded.py":
            allowed = {id(sub) for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "degree_piece"
                       for sub in ast.walk(node)}
        for node in ast.walk(tree):
            reads = (
                (isinstance(node, ast.Name) and node.id == "PIECE_GUARD"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "PIECE_GUARD")
                or (isinstance(node, ast.alias) and node.name == "PIECE_GUARD")
            )
            if reads and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"PIECE_GUARD read outside graded.degree_piece: {found}"


def test_cli_binds_no_guard():
    # every guard lives in the library module whose work it bounds, so a
    # library caller meets the refusals the commands meet
    bound = []
    for node in ast.parse((PACKAGE / "cli.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound.append(sub.id)
            elif isinstance(sub, ast.alias):
                bound.append(sub.asname or sub.name)
    guards = [name for name in bound if name.endswith("_GUARD")]
    assert not guards, f"guards bound in cli.py: {guards}"


# (a*b, c*d) takes the monomial route, and the complex of a*b*c*d has
# faces of size 2; one flipped sign in their boundaries breaks d∘d = 0.
# Exit 3 means the child did not run optimized.
FLIPPED_KOSZUL_SIGN = """
import sys
from idealreg import betti
from idealreg.cli import main

if __debug__:
    sys.exit(3)
boundary_rows = betti._boundary_rows

def flipped(domain, codomain_index):
    rows = boundary_rows(domain, codomain_index)
    if len(domain[0]) == 2:
        rows[0][min(rows[0])] *= -1
    return rows

betti._boundary_rows = flipped
main(["betti", "--ideal", "ideal(a*b, c*d)"])
"""


def test_a_flipped_koszul_sign_raises_under_python_O():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-O", "-c", FLIPPED_KOSZUL_SIGN],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert child.returncode == 1, child.stderr
    assert child.stdout == ""
    assert child.stderr.rstrip().endswith("AssertionError: koszul sign error")
