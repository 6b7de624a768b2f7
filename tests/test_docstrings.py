"""Docstring references: every :func:`name` in a library docstring names a
function that its module defines or imports, so no reference outlives the
function it points at."""

import ast
import re
from pathlib import Path

import sl2q

FUNC_REF = re.compile(r":func:`~?([\w.]+)`")


def docstrings(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def functions_in_scope(tree: ast.Module) -> set[str]:
    # the module's own top-level functions and every name it imports
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_docstring_function_references_resolve():
    refs, stale = 0, []
    for path in sorted(Path(sl2q.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = functions_in_scope(tree)
        for doc in docstrings(tree):
            for name in FUNC_REF.findall(doc):
                refs += 1
                if name not in scope:
                    stale.append(f"{path.name}: {name}")
    assert refs, "no :func: reference found; the pattern is stale"
    assert not stale
