"""Every name a ``trichannel`` module imports is referenced in that module.

An AST scan, so it needs no linter.  ``__init__.py`` is exempt: its
imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trichannel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
