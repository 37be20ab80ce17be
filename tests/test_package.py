"""Package surface: every exported name resolves, something uses it, and the CLI imports light."""

import ast
import copy
import importlib
import importlib.util
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import sinewall
from sinewall import cli, gv, hodge, partitions, series, wallcross
from sinewall.gv import GVReport
from sinewall.hodge import MuValue
from sinewall.partitions import ThreefoldPartition
from sinewall.wallcross import GenusTable, GridCell, GridReport, Kind, VertexData

ROOT = Path(__file__).resolve().parents[1]


# the modules that export names; the package itself exports none
_EXPORTING = (series, partitions, hodge, wallcross, gv)
_EXPORTS = [name for module in _EXPORTING for name in module.__all__]


def test_every_export_imports():
    assert len(_EXPORTS) == len(set(_EXPORTS))
    for module in _EXPORTING:
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)  # AttributeError on a stale name
        assert set(module.__all__) <= set(namespace)


def _used_names(path):
    """Names and attributes one file loads; imports, docstrings and other strings do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_is_reached():
    # an exported name that only its own tests call is a second code path; a
    # string that names it, such as a bench tracer TARGETS row, is no call
    used = set()
    for path in [*(ROOT / "src" / "sinewall").glob("*.py"), *(ROOT / "bench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        if path.name != "__init__.py":
            used |= _used_names(path)
    assert [name for name in _EXPORTS if name not in used] == []


def _foreign_functions(module):
    """Functions of other sinewall modules held, at any depth, in a module-level container."""
    found, seen = [], set()

    def walk(name, value):
        if id(value) in seen:
            return
        seen.add(id(value))
        items = [*value, *value.values()] if isinstance(value, dict) else value
        for item in items:
            if isinstance(item, (dict, list, tuple, set, frozenset)):
                walk(name, item)
            elif (callable(item) and not isinstance(item, type)
                  and getattr(item, "__module__", "").partition(".")[0] == "sinewall"
                  and item.__module__ != module.__name__):
                found.append((name, item.__qualname__))

    for name, value in vars(module).items():
        if isinstance(value, (dict, list, tuple, set, frozenset)):
            walk(name, value)
    return found


def test_no_container_holds_a_library_function():
    # bench/tracer.py and the tests' monkeypatching rebind module attributes:
    # a function held in a container escapes both, without an error, and is
    # missing from the traced spans.  A module's own functions may be held,
    # as cli.COMMANDS holds its handlers.
    names = [info.name for info in pkgutil.iter_modules(sinewall.__path__)]
    modules = [sinewall] + [importlib.import_module(f"sinewall.{name}") for name in names]
    assert [(m.__name__, _foreign_functions(m)) for m in modules
            if _foreign_functions(m)] == []
    probe = types.ModuleType("sinewall.cli")
    probe.table = {"options": ({"kernel": series.pow_int},)}
    probe.own = [lambda: None]
    probe.own[0].__module__ = "sinewall.cli"
    assert _foreign_functions(probe) == [("table", "pow_int")]


_ROW_KERNELS = {"_lowest", "_ladder", "_rung"}


def _series_reads(source):
    """Where one source reads a series by u-exponent or defines an integer-row kernel.

    A `.coeffs` subscript, a `.coefficient(2 ...)` call, a `_spread` call
    and a def of a `series` row kernel each give (line, what): `series`
    alone crosses between a `USeries` and its rows in x = u^2.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "coeffs":
            found.append((node.lineno, "coeffs subscript"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "_spread":
                found.append((node.lineno, "_spread call"))
            elif name == "coefficient" and node.args \
                    and ast.unparse(node.args[0]).startswith("2"):
                found.append((node.lineno, "coefficient(2 ...) call"))
        elif isinstance(node, ast.FunctionDef) and node.name in _ROW_KERNELS:
            found.append((node.lineno, f"def {node.name}"))
    return sorted(found)


def test_series_rows_cross_only_in_series():
    # the rows in x = u^2 have one owner: wallcross and hodge read a series
    # through series.even_row and spread a row back through even_series,
    # and define no integer-row kernel of their own
    for module in (wallcross, hodge):
        assert _series_reads(Path(module.__file__).read_text()) == [], module.__name__
    probe = ("nums = numerators(s.coeffs[::2])\n"
             "a = f.coefficient(2 * g)\n"
             "f = USeries(0, series._spread(h, 2, n))\n"
             "def _rung(step, den, n, size):\n"
             "    pass\n"
             "b = f.coefficient(k)\n")
    assert _series_reads(probe) == [(1, "coeffs subscript"), (2, "coefficient(2 ...) call"),
                                    (3, "_spread call"), (4, "def _rung")]


def test_cli_call_leaves_out_unused_modules(tmp_path):
    # one canonical call of each subcommand, in a python -S child (cli_import_probe.py)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", str(ROOT / "tests" / "cli_import_probe.py"),
                           str(tmp_path)], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[0, 0, 0, 0, 0]\n[]\n", "")
    assert '"kind": "gw"' in (tmp_path / "gw.json").read_text()


def test_cli_call_builds_no_namedtuple_and_compiles_no_pattern(tmp_path):
    # collections.namedtuple evals a __new__ for every record class, and a
    # pattern is compiled on its first use: both are paid again by every CLI
    # process.  The spies record the sinewall modules that make a namedtuple,
    # and every pattern that re looks up while the call runs.
    table = tmp_path / "u.json"
    table.write_text('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "ugw", '
                     '"g_max": 2, "values": {"0": "1", "2": "-5/7"}}')
    argvs = [["transform", "--direction", "ugw-to-gw", "--input", str(table),
              "--format", "json", "--output", str(tmp_path / "gw.json")],
             # a negative value, which argparse would read as an option but for its pattern
             ["expand-sine", "--g", "1", "--c", "-2", "--order", "6", "--output",
              str(tmp_path / "sine.txt")]]
    probe = ("import collections, json, re, sys\n"
             "makers, patterns = [], []\n"
             "namedtuple, compile_ = collections.namedtuple, re._compile\n"
             "def spy_namedtuple(*args, **kwargs):\n"
             "    makers.append(sys._getframe(1).f_globals.get('__name__', ''))\n"
             "    return namedtuple(*args, **kwargs)\n"
             "def spy_compile(pattern, *args):\n"
             "    patterns.append(str(pattern))\n"
             "    return compile_(pattern, *args)\n"
             "collections.namedtuple = spy_namedtuple\n"
             "import sinewall.cli\n"
             "re._compile = spy_compile\n"
             f"status = [sinewall.cli.main(argv) for argv in {argvs!r}]\n"
             "print(json.dumps([[m for m in makers if m.startswith('sinewall')], patterns, status]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(proc.stdout) == [[], [], [0, 0]]


# each factory builds a fresh record from equal arguments on every call
_RECORDS = {
    "GenusTable": lambda: GenusTable(Kind.GW, 3, True, {0: Fraction(1, 2)}, 2),
    "GVReport": lambda: GVReport(None, True, (), 0, "caveat"),
    "GridCell": lambda: GridCell((1, 2), True, ""),
    "GridReport": lambda: GridReport("raw", (GridCell((0,), True, ""),)),
    "MuValue": lambda: MuValue(Fraction(1), Fraction(-1), Fraction(1, 2)),
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


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_copy_pickle_construct_and_replace(name):
    # what a namedtuple subclass offers: copy and pickle rebuild the record
    # through __getnewargs__, keywords bind as for a function,
    # and _replace keeps the class
    record = _RECORDS[name]()
    cls = type(record)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
    assert cls(**dict(zip(cls._fields, record))) == record
    replaced = record._replace(**{cls._fields[0]: record[0]})
    assert type(replaced) is cls and replaced == record
    with pytest.raises(ValueError):
        record._replace(no_such_field=0)
    with pytest.raises(TypeError):
        cls(*record, None)
    with pytest.raises(TypeError):
        cls(*record[:-1])
    with pytest.raises(TypeError):
        cls(*record, **{cls._fields[0]: record[0]})


def test_replace_validates_as_the_constructor_does():
    with pytest.raises(ValueError):
        _RECORDS["GenusTable"]()._replace(g_max=-1)
    with pytest.raises(ValueError):
        _RECORDS["ThreefoldPartition"]()._replace(g1=(1, 2))
    with pytest.raises(ValueError, match="float values are not exact"):
        _RECORDS["VertexData"]()._replace(mu1={1: 0.5})
    gv = _RECORDS["GenusTable"]()._replace(kind=Kind.GV)
    assert (gv.kind, gv.values, gv.g_max) == (Kind.GV, {0: Fraction(1, 2)}, 2)


# ---------------------------------------------------------------- reachability

# What the guard below runs: these calls of the CLI, in a directory that
# holds the tables of _REACH_TABLES, the checks of tests/test_acceptance.py
# and the kernel rows of bench/tracer.py.  The argv cover every subcommand in
# both formats, a report to --output, each kind of refusal and help.
_REACH_TABLES = {
    "ugw.json": '{"class": {"c1_dot_beta": 3, "primitive": true}, "kind": "ugw", "g_max": 3, '
                '"values": {"0": "1", "1": "-1/12", "3": "5/7"}}',
    "gw.json": '{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gw", "g_max": 2, '
               '"values": {"0": "1", "1": "-1/12", "2": "1/360"}}',
    "gw_half.json": '{"class": {"c1_dot_beta": 1, "primitive": true}, "kind": "gw", '
                    '"g_max": 1, "values": {"0": "1/2", "1": "0"}}',
    "gv.json": '{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gv", "g_max": 3, '
               '"values": {"0": "1"}}',
    "ugw_gated.json": '{"class": {"c1_dot_beta": -1, "primitive": true}, "kind": "ugw", '
                      '"g_max": 1, "values": {"0": "1"}}',
    "gw_gap.json": '{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gw", "g_max": 2, '
                   '"values": {"0": "1"}}',
    "repeated.json": '{"class": {"c1_dot_beta": 4, "c1_dot_beta": 4, "primitive": true}}',
    "long_int.json": '{"g_max": 1' + "0" * 1001 + '}',
    "bad_key.json": '{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gv", "g_max": 3, '
                    '"values": {"01": "1"}}',
    "not_json.json": "{",
    "not_utf8.json": b"\xff\xfe{}",
}
_REACH_ARGV = (
    *(["transform", "--direction", direction, "--input", table, "--format", fmt]
      for direction, table in (("ugw-to-gw", "ugw.json"), ("gw-to-ugw", "gw.json"),
                               ("gw-to-gv", "gw.json"), ("gv-to-gw", "gv.json"),
                               ("gw-to-gv", "gw_half.json"))
      for fmt in ("text", "json")),
    *(["check-integrality", "--input", table, "--format", fmt]
      for table in ("gw.json", "gw_half.json", "gv.json", "ugw.json")
      for fmt in ("text", "json")),
    *([command, option, value, "--format", fmt]
      for command, option, value in (("verify-identities", "--order", "6"),
                                     ("mu", "--g-max", "3"))
      for fmt in ("text", "json")),
    *(["expand-sine", "--g", "1", "--c", c, "--order", order, "--format", fmt]
      for c, order in (("-2", "8"), ("3", "0"))
      for fmt in ("text", "json")),
    ["mu", "--g-max", "2", "--output", "mu.txt"],
    # refusals: limits, empty and unreadable paths, table files, kinds, the gate, --output
    ["verify-identities", "--order", "111"],
    ["mu", "--g-max", "-1"],
    ["expand-sine", "--g", "1000001", "--c", "0"],
    ["check-integrality", "--input", ""],
    *(["check-integrality", "--input", table]
      for table in ("missing.json", "not_json.json", "not_utf8.json", "repeated.json",
                    "long_int.json", "bad_key.json", "ugw_gated.json")),
    ["transform", "--direction", "ugw-to-gw", "--input", "gw.json"],
    ["transform", "--direction", "gw-to-ugw", "--input", "gw_gap.json"],
    ["transform", "--direction", "gv-to-gw", "--input", "ugw_gated.json"],
    ["mu", "--g-max", "1", "--output", "no/such/dir/mu.txt"],
    # argv that only argparse reads: usage errors, a non-canonical form, help
    ["transform", "--input", "gw.json"],
    ["frobnicate"],
    ["expand-sine", "--g=0", "--c", "4"],
    ["--help"],
)

# defs that neither the CLI runs above, the acceptance checks nor the
# tracer's kernel rows enter: protocol methods only, each kept for its reason
_UNREACHED_KEPT = {
    ("_record", "Record.__init_subclass__"): "runs at import, once for each record class",
    ("_record", "Record.__getnewargs__"): "protocol method: copy and pickle of a record",
    ("_record", "Record.__repr__"): "protocol method: repr of a record",
    ("series", "USeries.__setattr__"): "protocol method: refuses assignment to a series",
    ("series", "USeries.__repr__"): "protocol method: repr of a series",
}

# defs that the acceptance checks or the tracer's kernel rows enter, and no
# CLI run: public kernels and test hooks, each kept for its reason.  This is
# the list to delete from once the benchmark no longer times them.
_OFF_CLI_KEPT = {
    ("_record", "Record._replace"): "namedtuple protocol; VertexData.perturbed builds on it",
    ("hodge", "mu_g0"): "one genus of mu_values: criterion 5 and the tracer's mu kernel row",
    ("hodge", "mu_g1"): "one genus of mu_values: criterion 5 and the tracer's mu kernel row",
    ("partitions", "ThreefoldPartition.__new__"): "criterion 6's brute-force raw-sum index set",
    ("partitions", "descending_walk"): "criterion 6's brute-force raw-sum index set",
    ("partitions", "enumerate_threefold_partitions"): "criterion 6 and the tracer's kernel row",
    ("series", "USeries.__add__"): "series sum: criterion 6's property suites",
    ("series", "USeries.__eq__"): "series equality: criteria 5 and 6 compare series",
    ("series", "USeries.agrees"): "equality where both determine: criterion 6's property suites",
    ("series", "USeries.one"): "pow_int's power 0: criterion 6's property suites",
    ("series", "even_series"): "a row back to u: eq_sum and correction_raw_sum, below",
    ("series", "exp"): "criterion 6's exp and log identities",
    ("series", "inv"): "criterion 6's pow_int(w, -2) == inv(pow_int(w, 2))",
    ("wallcross", "VertexData.perturbed"): "testing hook: criterion 7's negative controls",
    ("wallcross", "_cell"): "a failing grid cell: criterion 7; no unperturbed CLI call fails one",
    # criteria 1 and 2 run verify_grids; only the tracer's kernel rows
    # wallcross.kernel_raw_cell_ms and kernel_eq_cell_ms enter these two,
    # which leave with ROADMAP item 4's benchmark half
    ("wallcross", "correction_raw_sum"): "one raw-sum cell: the tracer's kernel_raw_cell_ms row",
    ("wallcross", "eq_sum"): "one eq cell: the tracer's kernel_eq_cell_ms row",
}


def _defs(path):
    """(qualname, line of its code's first line) of every def in one source file."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first))
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    walk(ast.parse(path.read_text()), "")
    return found


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_def_is_reached(tmp_path, monkeypatch, capsys):
    # src keeps only what a CLI call reaches: every def is entered by one of
    # the CLI runs above, or kept for its reason, in _OFF_CLI_KEPT when only
    # the acceptance checks or the tracer's kernel rows enter it, in
    # _UNREACHED_KEPT when no run enters it, which only a protocol method may be
    methods = [qualname.rpartition(".")[2] for _, qualname in _UNREACHED_KEPT]
    assert [name for name in methods if not (name.startswith("__") and name.endswith("__"))] == []
    tracer = _load("reach_tracer", ROOT / "bench" / "tracer.py")
    acceptance = _load("reach_acceptance", ROOT / "tests" / "test_acceptance.py")
    for name, text in _REACH_TABLES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    monkeypatch.chdir(tmp_path)
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.setattr(hodge, "_memo", ())  # a memo hit would enter no code
    statuses = []
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in _REACH_ARGV:
            try:
                statuses.append(cli.main(argv))
            except SystemExit as e:  # argparse: usage errors and help
                statuses.append(e.code)
        cli_entered = set(entered)
        for name in sorted(vars(acceptance)):
            if name.startswith("test_"):
                getattr(acceptance, name)()
        for name in tracer.KERNELS:
            tracer._kernel(name)()
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    # transforms and check-integrality (the non-integral tables fail their
    # check), verify-identities, mu, expand-sine, the refusals, then argparse's
    assert statuses == [0] * 8 + [1, 1] + [0, 0, 1, 1] * 2 + [0] * 9 + [2] * 17 + [0, 0], statuses

    src = ROOT / "src" / "sinewall"
    lines, cli_lines = ({(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
                        for codes in (entered, cli_entered))
    defs = {(path.stem, qualname): (path.resolve(), first)
            for path in sorted(src.glob("*.py")) for qualname, first in _defs(path)}
    off_cli = [key for key, line in defs.items() if line not in cli_lines]
    unreached = [key for key in off_cli if defs[key] not in lines]
    stray = [key for key in off_cli if key not in _OFF_CLI_KEPT.keys() | _UNREACHED_KEPT.keys()]
    assert stray == [], stray
    # each kept def exists, no CLI run enters it, and the two lists are exact:
    # an _OFF_CLI_KEPT def that no run enters any more fails here
    assert [key for key in _OFF_CLI_KEPT
            if key not in off_cli or key in unreached or key in _UNREACHED_KEPT] == []
    assert [key for key in _UNREACHED_KEPT if key not in unreached] == []
