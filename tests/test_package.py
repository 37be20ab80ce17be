"""Package surface: every exported name resolves, and something uses it."""

import ast
from pathlib import Path

import sinewall

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_imports():
    assert len(set(sinewall.__all__)) == len(sinewall.__all__)
    namespace = {}
    exec("from sinewall import *", namespace)  # AttributeError on a stale name
    assert set(sinewall.__all__) <= set(namespace)


def _used_names(path, with_strings=False):
    """Names, attributes and imports in one file; docstrings do not count.

    With ``with_strings`` the dotted parts of other string constants count
    too, such as the "module", "Class.method" pairs the bench tracer wraps.
    """
    tree = ast.parse(path.read_text())
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif (with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(node.value.split("."))
    return used


def test_every_export_is_reached():
    # an exported name that only its own tests call is a second code path
    used = set()
    for path in sorted((ROOT / "src" / "sinewall").glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path)
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _used_names(path, with_strings=True)
    used |= _used_names(ROOT / "tests" / "test_acceptance.py")
    assert [name for name in sinewall.__all__ if name not in used] == []
