"""No function in ``src/`` rebinds module state through a ``global``
statement, except the one known slot.

``mesh.build_mesh`` keeps the warm-start seed of the next plan in
``mesh._plan_start``; the aim is for one closed-loop run to own it instead.
Any other ``global`` fails here, and so does the known one once it is gone,
so that the list shrinks with it.  An AST scan, as in ``test_imports``.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trichannel"
KNOWN = {("mesh.py", "build_mesh", "_plan_start")}


def global_statements(tree):
    """(function, name) for each name that a ``global`` statement inside a
    function declares; a nested function's counts for its outer ones too."""
    return {(fn.name, name)
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, ast.Global)
            for name in node.names}


def test_only_the_known_global_statements():
    found = {(path.name, fn, name) for path in sorted(PACKAGE.glob("*.py"))
             for fn, name in global_statements(ast.parse(path.read_text(), filename=str(path)))}
    assert found == KNOWN


def test_scan_finds_a_global_statement():
    tree = ast.parse("_cache = None\n"
                     "def pure(x):\n"
                     "    return x\n"
                     "class Holder:\n"
                     "    def fill(self, x):\n"
                     "        global _cache, _count\n"
                     "        _cache = x\n")
    assert global_statements(tree) == {("fill", "_cache"), ("fill", "_count")}
