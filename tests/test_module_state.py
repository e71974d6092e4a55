"""No function in ``src/`` rebinds module state through a ``global``
statement.

State that outlives a call belongs to an owner that a caller can see: the
warm start of a plan's first snapshot lives on the ``Scenario``, and one
closed-loop run empties it at its start and end.  Any ``global`` fails
here.  An AST scan, as in ``test_imports``.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trichannel"
KNOWN = set()


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
