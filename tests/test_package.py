"""Package surface: every exported name resolves, something uses it, and the CLI imports light."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sinewall
from sinewall.gv import GVReport
from sinewall.hodge import CheckReport, MuValue
from sinewall.partitions import ThreefoldPartition
from sinewall.wallcross import GenusTable, GridCell, GridReport, Kind, VertexData

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


# modules a CLI call has no use for: argparse (with gettext, and locale on its
# first message lookup) serves only help and non-canonical argv, dataclasses
# pulls in inspect, ast, dis and tokenize; typing and pathlib are unused
_UNUSED_MODULES = ("argparse", "gettext", "locale", "typing", "pathlib", "dataclasses", "inspect")


def test_cli_call_leaves_out_unused_modules(tmp_path):
    # every CLI call is a fresh process, so its import cost is paid per call;
    # -S keeps out what site itself imports (.pth files can import typing)
    table = tmp_path / "u.json"
    table.write_text('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "ugw", '
                     '"g_max": 2, "values": {"0": "1"}}')
    out = tmp_path / "gw.json"
    argv = ["transform", "--direction", "ugw-to-gw", "--input", str(table),
            "--format", "json", "--output", str(out)]
    probe = (f"import sys\nunused = {_UNUSED_MODULES!r}\n"
             "import sinewall.cli\n"
             "print([m for m in unused if m in sys.modules])\n"
             f"print(sinewall.cli.main({argv!r}))\n"
             "print([m for m in unused if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n0\n[]\n"
    assert '"kind": "gw"' in out.read_text()


# each factory builds a fresh record from equal arguments on every call
_RECORDS = {
    "GenusTable": lambda: GenusTable(Kind.GW, 3, True, {0: Fraction(1, 2)}, 2),
    "GVReport": lambda: GVReport(None, True, (), 0, "caveat"),
    "GridCell": lambda: GridCell((1, 2), True),
    "GridReport": lambda: GridReport("raw", (GridCell((0,), True),)),
    "MuValue": lambda: MuValue(Fraction(1), Fraction(-1), Fraction(1, 2)),
    "CheckReport": lambda: CheckReport(True, (1, 2)),
    "VertexData": lambda: VertexData({1: Fraction(1)}, {1: Fraction(2)}, {1: Fraction(3)}),
    "ThreefoldPartition": lambda: ThreefoldPartition(1, (2, 1), (1,)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable_field_records(name):
    record, twin = _RECORDS[name](), _RECORDS[name]()
    fields = type(record)._fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert type(record).__slots__ == ()
    assert not hasattr(record, "__dict__")
    assert record == twin and record is not twin
    assert all(f"{field}=" in repr(record) for field in fields)


def test_record_hashing_and_validation():
    with pytest.raises(TypeError):
        hash(_RECORDS["GenusTable"]())  # its values field is a dict
    assert hash(_RECORDS["ThreefoldPartition"]()) == hash(_RECORDS["ThreefoldPartition"]())
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 3, True, {}, g_max=-1)
    with pytest.raises(ValueError):
        ThreefoldPartition(0, (1, 2), ())
