"""Every name a ringkit module imports is used in that module, so an
import orphaned by a refactor goes in the same change.  __init__.py is
exempt: it imports to re-export."""

import ast
from pathlib import Path

import pytest

import ringkit

MODULES = sorted(p for p in Path(ringkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name}: imported but unused (name: line)"


CROSSOVERS = {"KRONECKER_MIN", "NEWTON_MIN", "HGCD_MIN", "GCD_HGCD_MIN"}


def test_only_poly_reads_the_dense_crossovers():
    # the dense kernels choose their algorithm in poly.py alone
    readers = {}
    for path in Path(ringkit.__file__).parent.glob("*.py"):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        if names & CROSSOVERS:
            readers[path.name] = sorted(names & CROSSOVERS)
    assert readers == {}
