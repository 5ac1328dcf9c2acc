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


def _private_definitions(tree):
    """name -> the top-level statement that defines it, for each private
    (one leading underscore) function, class or constant; decorated
    functions are registered by their decorator, so they are left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return {name: node for name, node in out.items()
            if name.startswith("_") and not name.startswith("__")}


def _references(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_name_is_used():
    # a gate or helper that a merge left behind is referenced only by
    # its own definition
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in Path(ringkit.__file__).parent.glob("*.py")}
    statements = [(name, node) for name, tree in trees.items()
                  for node in tree.body]
    refs = [(name, node, _references(node)) for name, node in statements]
    unused = []
    for module, tree in trees.items():
        for name, defn in _private_definitions(tree).items():
            if not any(name in r for m, node, r in refs
                       if not (m == module and node is defn)):
                unused.append(f"{module}: {name}")
    assert unused == []


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


CONTEXT_TYPES = {"PolyRing", "QuadIntRing"}


def test_factor_tells_its_ring_families_apart_by_hooks():
    # F_p[x] is the ring prime_kernel answers for, Z[x] and Q[x] the
    # polynomial rings of characteristic 0 over a base with a kernel()
    # record: factor.py names a context type only to build a context or
    # in a context_of gate, and imports neither Z's nor Q's class; the
    # distinct- and equal-degree loops take F_p's kernel record
    path = Path(ringkit.__file__).parent / "factor.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"IntegerRing", "RationalField"} == set()
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert defined & {"over_z", "over_z_or_q", "_ctx"} == set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "_distinct_degree", "_equal_degree_split"):
            assert node.args.args[0].arg == "K"
            assert "prime_kernel" not in _references(node)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in CONTEXT_TYPES:
                allowed.add(id(node.func))
            elif node.func.id == "context_of" and len(node.args) > 1:
                allowed.update(id(sub) for sub in ast.walk(node.args[1]))
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in CONTEXT_TYPES
             and id(node) not in allowed]
    assert named == []
