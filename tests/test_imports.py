"""Every name a ``trichannel`` or test module imports is referenced in
that module, and every function, class and module-level constant a
``trichannel`` module defines is referenced somewhere in ``src/``.

An AST scan, so it needs no linter.  ``__init__.py`` is exempt from the
import check: its imports are the package's re-exports.  An import is not
a reference, nor is an assignment, so a definition that only the
re-exports and the tests reach fails the second check.  Dunders are exempt
from it.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trichannel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def imported_names(tree):
    """Local name bound by each import statement, with its line number."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def referenced_names(tree):
    """Every bare name the module reads, string annotations included."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.extend(a.annotation for a in
                               args.posonlyargs + args.args + args.kwonlyargs
                               + [args.vararg, args.kwarg] if a is not None)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= referenced_names(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("from typing import List, Optional\n"
                     "import numpy as np\n"
                     "def f(x: 'Optional[int]') -> None:\n"
                     "    return np.abs(x)\n")
    used = referenced_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["List"]


def defined_names(tree):
    """Each function, class and module-level constant the module defines,
    dunders left out, with its line."""
    out = [(node.name, node.lineno) for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [(n.id, node.lineno) for target in targets for n in ast.walk(target)
                if isinstance(n, ast.Name)]
    return [(name, line) for name, line in out
            if not (name.startswith("__") and name.endswith("__"))]


def used_names(trees):
    """Every bare name and attribute name that the modules read."""
    used = set()
    for tree in trees:
        used |= referenced_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return used


def test_every_definition_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    used = used_names(trees.values())
    unused = [f"{name}:{line} {d}" for name, tree in trees.items()
              for d, line in defined_names(tree) if d not in used]
    assert unused == []


def test_scan_finds_a_definition_only_tests_call():
    lib = ast.parse("class A:\n"
                    "    def __init__(self):\n"
                    "        self.used()\n"
                    "    def used(self):\n"
                    "        pass\n"
                    "    def only_tested(self):\n"
                    "        pass\n"
                    "def make() -> 'A':\n"
                    "    return A()\n")
    caller = ast.parse("from lib import make, only_tested\n"
                       "make()\n")
    used = used_names([lib, caller])
    assert [n for n, _ in defined_names(lib) if n not in used] == ["only_tested"]


def test_scan_finds_a_constant_nothing_reads():
    lib = ast.parse("import numpy as np\n"
                    "_ROWS = np.array([0, 1, 2])\n"
                    "_UNREAD, _PAIR = 1, 2\n"
                    "LIMIT: int = 3\n"
                    "__all__ = ['f']\n"
                    "def f(x):\n"
                    "    _UNREAD = 4\n"
                    "    return x[_ROWS] + _PAIR\n")
    caller = ast.parse("import lib\n"
                       "lib.f(lib.LIMIT)\n")
    used = used_names([lib, caller])
    assert [n for n, _ in defined_names(lib) if n not in used] == ["_UNREAD"]
