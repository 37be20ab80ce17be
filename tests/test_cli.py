"""Command-line surface: schema validation, directions, exit codes, formats."""

import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinewall import cli, hodge, series, wallcross
from sinewall.cli import (
    COMMANDS,
    ParseError,
    build_parser,
    dumps_canonical,
    load_table,
    main,
    parse_table_doc,
    table_to_doc,
)
from sinewall.wallcross import (
    GenusTable,
    Kind,
    VertexData,
    ugw_from_gw,
)


def make_doc(kind="gw", c=4, primitive=True, g_max=2, values=None):
    return {
        "class": {"c1_dot_beta": c, "primitive": primitive},
        "kind": kind,
        "g_max": g_max,
        "values": {} if values is None else values,
    }


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# a child interpreter imports sinewall from this checkout, as pytest does
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

LINE_GV = {"kind": "gv", "c": 4, "g_max": 3, "values": {"0": "1"}}


# ---------------------------------------------------------------- schema


def test_parse_roundtrip_is_byte_identical():
    doc = make_doc(values={"0": "1", "1": "-1/12", "2": "1/360"})
    canonical = dumps_canonical(table_to_doc(parse_table_doc(doc)))
    again = dumps_canonical(table_to_doc(parse_table_doc(json.loads(canonical))))
    assert again == canonical
    assert canonical.endswith("\n")
    order = [canonical.index(k) for k in ('"class"', '"kind"', '"g_max"', '"values"')]
    assert order == sorted(order)


def test_parse_accepts_sparse_values():
    t = parse_table_doc(make_doc(values={"2": "5"}))
    assert t.kind is Kind.GW
    assert t.value(2) == 5
    assert 0 not in t.values


# one-field mutations of a valid document, each refused by the parser
_MANGLES = (
    lambda d: d.pop("kind"),
    lambda d: d.update(extra=1),
    lambda d: d.update(kind="bps"),
    lambda d: d.update(g_max=-1),
    lambda d: d.update(g_max=True),
    lambda d: d.update(g_max="2"),
    lambda d: d.update(values={"x": "1"}),
    lambda d: d.update(values={"-1": "1"}),
    lambda d: d.update(values={"01": "1"}),
    lambda d: d.update(values={"9": "1"}),
    lambda d: d.update(values={"0": "0.5"}),
    lambda d: d.update(values={"0": "1/0"}),
    lambda d: d.update(values={"0": 1}),
    lambda d: d.update(values=[["0", "1"]]),
    lambda d: d["class"].pop("primitive"),
    lambda d: d["class"].update(primitive="yes"),
    lambda d: d["class"].update(c1_dot_beta=True),
    lambda d: d["class"].update(c1_dot_beta="4"),
    lambda d: d["class"].update(stray=0),
    lambda d: d.update(kind=["gw"]),
    lambda d: d.update(kind={"a": 1}),
    lambda d: d.update(values={"0": "1/"}),
)


@pytest.mark.parametrize("mangle", _MANGLES)
def test_parse_rejects_malformed_documents(mangle):
    doc = make_doc(values={"0": "1"})
    mangle(doc)
    with pytest.raises(ParseError):
        parse_table_doc(doc)


def test_parse_rejects_non_object():
    with pytest.raises(ParseError):
        parse_table_doc([1, 2])


def test_load_table_errors(tmp_path):
    with pytest.raises(ParseError):
        load_table(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_table(str(bad))


@pytest.mark.parametrize(
    "values, named",
    [
        ({"0": "1", "1": "5", "1\n": "7"}, "'1\\n'"),
        ({"0": "1", "12": "5", "1\u0662": "7"}, "'1\u0662'"),
        ({"0": "1", "1": "5\n"}, "'5\\n'"),
    ],
)
def test_non_canonical_key_or_value_refused(tmp_path, capsys, monkeypatch, values, named):
    # "1\n" and "1\u0662" would otherwise alias genus 1 and 12 and overwrite their values
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    monkeypatch.setattr(cli, "gw_from_gv", boom)
    path = write_doc(tmp_path, "gv.json", make_doc(kind="gv", g_max=12, values=values))
    assert main(["transform", "--direction", "gv-to-gw", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err


# the patterns the parser matched keys and values with before it used str
# methods: the reference that the two predicates must agree with exactly
_GENUS_PATTERN = r"0|[1-9][0-9]*"
_VALUE_PATTERN = r"-?[0-9]+(/[0-9]+)?"


@settings(max_examples=2000)
@given(st.one_of(st.text(alphabet="0129-/+ \n\u0662\u00b2x", max_size=7), st.text(max_size=5)))
@example("01")
@example("1\u0662")
@example("+1")
@example(" 1")
@example("1\n")
@example("-")
@example("--1")
@example("1/")
@example("/1")
@example("1/-2")
@example("")
@example("-0/00")
@example("1/2/3")
def test_key_and_value_predicates_accept_what_the_patterns_do(text):
    assert cli._is_genus_key(text) == bool(re.fullmatch(_GENUS_PATTERN, text))
    assert cli._is_value(text) == bool(re.fullmatch(_VALUE_PATTERN, text))


# the pattern argparse 3.11 reads a negative number with, which the table
# reader matched before it used str methods: the predicate may reject more
# (those argv fall through to argparse), never accept more
_NEGATIVE_NUMBER_PATTERN = r"^-\d+$|^-\d*\.\d+$"
_argparse_matcher = functools.cache(lambda: build_parser()._negative_number_matcher)


@settings(max_examples=1000)
@given(st.one_of(st.text(alphabet="-.019\n\u0663\u00b2x ", max_size=6), st.text(max_size=5)))
@example("-1")
@example("-0")
@example("-.5")
@example("-1.5")
@example("-1.")
@example("-")
@example("--1")
@example("-1.2.3")
@example("-1\n")
@example("-\u0663")
@example("-\u00b2")
@example("1")
def test_negative_number_predicate_accepts_only_what_the_pattern_does(text):
    if cli._is_negative_number(text):
        assert re.match(_NEGATIVE_NUMBER_PATTERN, text)
        assert _argparse_matcher().match(text)
    if text.isascii() and "\n" not in text:
        # on ASCII text without a newline the two agree exactly
        assert cli._is_negative_number(text) == bool(re.match(_NEGATIVE_NUMBER_PATTERN, text))


def _forbid_computation(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the argument check")

    for name in ("verify_grids", "sine_factor", "mu_values"):
        monkeypatch.setattr(cli, name, boom)


def test_negative_order_refused(capsys, monkeypatch):
    _forbid_computation(monkeypatch)
    for argv in (["verify-identities", "--order", "-1"],
                 ["expand-sine", "--g", "0", "--c", "4", "--order", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order must be nonnegative\n"


def test_negative_g_max_refused(capsys, monkeypatch):
    _forbid_computation(monkeypatch)
    assert main(["mu", "--g-max", "-1", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: g_max must be nonnegative\n"
    monkeypatch.undo()  # g_max 0 asks mu_values(0) for its empty tuple
    assert main(["mu", "--g-max", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == '{\n  "mu": {}\n}\n'


class _Reached(Exception):
    """Raised by a patched computation: the argument check let the call through."""


@pytest.mark.parametrize(
    "argv, name, limit, patched",
    [
        (["verify-identities", "--order"], "order", cli.MAX_VERIFY_ORDER, ("verify_grids",)),
        (["expand-sine", "--g", "1", "--c", "3", "--order"], "order", cli.MAX_SINE_ORDER,
         ("sine_factor",)),
        (["mu", "--format", "json", "--g-max"], "g_max", cli.MAX_MU_G_MAX, ("mu_values",)),
    ],
)
def test_cli_limits(capsys, monkeypatch, argv, name, limit, patched):
    def reached(*args, **kwargs):
        raise _Reached

    for fn in patched:
        monkeypatch.setattr(cli, fn, reached)
    for value in (limit - 1, limit):
        with pytest.raises(_Reached):
            main(argv + [str(value)])
    _forbid_computation(monkeypatch)
    assert main(argv + [str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = argv[0]
    assert captured.err == f"error: {name} must be at most {limit} for {command}, got {limit + 1}\n"


def test_cli_limits_cover_documented_workloads():
    # the benchmark runs verify-identities through order 10, expand-sine
    # through order 18 and mu through g_max 8; ROADMAP times order 14
    assert cli.MAX_VERIFY_ORDER >= 14
    assert cli.MAX_SINE_ORDER >= 18
    assert cli.MAX_MU_G_MAX >= 8
    # expand-sine jobs use g 0..8 and c -2..8, tables c -3..8
    assert cli.MAX_ABS_G_C >= 8
    # every table g_max the benchmark and its baseline send is accepted
    assert cli.MAX_TABLE_G_MAX >= max(_bench_table_g_maxes())


def _bench_table_g_maxes() -> set[int]:
    """The transform-deep rungs of bench/jobs.py and the g_max loop of `bench/run.py --baseline`."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    found = set()
    for node in ast.parse((bench / "jobs.py").read_text()).body:
        name = isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
        if name in ("DEEP_BELOW", "DEEP_ABOVE"):
            found.update(g_max for g_max, _ in ast.literal_eval(node.value))
        elif name == "DEEP_MIDDLE":
            found.add(ast.literal_eval(node.value))
    found.update(_baseline_g_maxes())
    assert 40 in found and 80 in found
    return found


def _baseline_g_maxes() -> tuple[int, ...]:
    """The g_max loop of `bench/run.py --baseline`."""
    run = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    baseline = [node for node in ast.walk(ast.parse(run.read_text()))
                if isinstance(node, ast.For) and getattr(node.target, "id", None) == "g_max"]
    assert len(baseline) == 1
    return ast.literal_eval(baseline[0].iter)


@pytest.mark.parametrize("name, sign", [("g", 1), ("g", -1), ("c", 1), ("c", -1)])
def test_expand_sine_g_c_limit(capsys, monkeypatch, name, sign):
    # a huge --g or --c used to compute and then fail at print on the digit cap
    def reached(*args, **kwargs):
        raise _Reached

    limit = cli.MAX_ABS_G_C
    args = {"g": 1, "c": 3}

    def argv(value):
        args[name] = value
        return ["expand-sine", "--g", str(args["g"]), "--c", str(args["c"]), "--order", "6"]

    monkeypatch.setattr(cli, "sine_factor", reached)
    for value in (limit - 1, limit):
        with pytest.raises(_Reached):
            main(argv(sign * value))
    _forbid_computation(monkeypatch)
    assert main(argv(sign * (limit + 1))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: |{name}| must be at most {limit} for expand-sine, "
                            f"got {sign * (limit + 1)}\n")


def test_c1_dot_beta_limit(tmp_path, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "gw_from_gv", reached)
    limit = cli.MAX_ABS_G_C
    for c in (limit - 1, limit, -limit):
        path = write_doc(tmp_path, "gv.json", make_doc(kind="gv", c=c, values={"0": "1"}))
        with pytest.raises(_Reached):
            main(["transform", "--direction", "gv-to-gw", "--input", path])
    for c in (limit + 1, -limit - 1):
        path = write_doc(tmp_path, "gv.json", make_doc(kind="gv", c=c, values={"0": "1"}))
        assert main(["transform", "--direction", "gv-to-gw", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: |c1_dot_beta| must be at most {limit}, got {c}\n"


@pytest.mark.parametrize("argv, kind, patched", [
    (["transform", "--direction", "ugw-to-gw"], "ugw", "gw_from_ugw"),
    (["transform", "--direction", "gw-to-ugw"], "gw", "ugw_from_gw"),
    (["check-integrality"], "gw", "gv_from_gw"),
])
def test_table_g_max_limit(tmp_path, capsys, monkeypatch, argv, kind, patched):
    # a table's g_max was the last unbounded input: one of 10**6 with no
    # values ran the forward transform without bound
    def reached(*args, **kwargs):
        raise _Reached

    def boom(*args, **kwargs):
        raise AssertionError("computation started before the g_max check")

    limit = cli.MAX_TABLE_G_MAX

    def path(g_max):
        values = {str(g): "1" for g in range(g_max + 1)}
        return write_doc(tmp_path, "t.json", make_doc(kind=kind, c=3, g_max=g_max, values=values))

    monkeypatch.setattr(cli, patched, reached)
    for g_max in (limit - 1, limit):
        with pytest.raises(_Reached):
            main(argv + ["--input", path(g_max)])
    for name in ("gw_from_ugw", "ugw_from_gw", "gv_from_gw", "gw_from_gv", "report_on_gv"):
        monkeypatch.setattr(cli, name, boom)
    assert main(argv + ["--input", path(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: g_max must be at most {limit}, got {limit + 1}\n"
    if kind == "ugw":
        empty = write_doc(tmp_path, "e.json", make_doc(kind="ugw", g_max=10**6))
        assert main(argv + ["--input", empty]) == 2
        assert capsys.readouterr().err == f"error: g_max must be at most {limit}, got {10**6}\n"


@pytest.mark.parametrize("argv, kind, patched", [
    (["transform", "--direction", "ugw-to-gw"], "ugw", "gw_from_ugw"),
    (["transform", "--direction", "gw-to-ugw"], "gw", "ugw_from_gw"),
    (["check-integrality"], "gw", "gv_from_gw"),
])
def test_table_digit_limit(tmp_path, capsys, monkeypatch, argv, kind, patched):
    # a transform's cost grows with the digits of its values, which g_max alone does not bound
    def reached(*args, **kwargs):
        raise _Reached

    def boom(*args, **kwargs):
        raise AssertionError("computation started before the digit check")

    limit = cli.MAX_TABLE_DIGITS

    def path(digits):
        # every genus of g_max 20 holds about the same share, as "p/q" or "-p/q"
        values = {}
        for g in range(21):
            share = digits // 21 + (g < digits % 21)
            values[str(g)] = "-" * (g % 2) + "7" * (share - share // 2) + "/" + "9" * (share // 2)
        return write_doc(tmp_path, "t.json", make_doc(kind=kind, c=3, g_max=20, values=values))

    monkeypatch.setattr(cli, patched, reached)
    for digits in (limit - 1, limit):
        with pytest.raises(_Reached):
            main(argv + ["--input", path(digits)])
    for name in _TABLE_WORK:
        monkeypatch.setattr(cli, name, boom)
    assert main(argv + ["--input", path(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: values must have at most {limit} digits in all, got {limit + 1}\n"


def _bench_tables():
    """(job, table document) for every table the first blocks of each benchmark workload
    write, at the default seed and at 7, then (None, document) for the tables of
    `bench/run.py --baseline`."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        from jobs import WORKLOADS, Generator
        from oracle import SinePowers
    finally:
        sys.path.remove(str(bench))
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in (0, 7):
                generator = Generator(workload, seed, Path(work))
                for b in range(8):
                    for job in generator.block(b):
                        for text in job.files.values():
                            yield job, json.loads(text)
    # the baseline sends ugw values g + 1 at c = 3 and then their gw transform,
    # the largest table the benchmark sends (24 559 digits at g_max 80)
    oracle = SinePowers()
    for g_max in _baseline_g_maxes():
        ugw = {g: Fraction(g + 1) for g in range(g_max + 1)}
        for kind, values in (("ugw", ugw), ("gw", oracle.forward(ugw, 3, g_max))):
            yield None, make_doc(kind=kind, c=3, g_max=g_max,
                                 values={str(g): str(v) for g, v in values.items()})


def test_every_bench_table_is_admitted():
    # every table the benchmark sends passes the digit bound; the two built
    # past CPython's digit cap are still refused for their one over-long value
    seen = 0
    for job, doc in _bench_tables():
        parts = [part for value in doc["values"].values() for part in value.lstrip("-").split("/")]
        if max(map(len, parts)) > cli.MAX_VALUE_DIGITS:
            assert job.expect_exit == 2
            with pytest.raises(ParseError, match="numerator or denominator of more than"):
                parse_table_doc(doc)
        else:
            parse_table_doc(doc)
            seen += 1
    assert seen > 200


def test_expand_sine_at_the_g_c_corner_prints(capsys):
    # the largest accepted input at the largest order prints every coefficient
    limit = str(cli.MAX_ABS_G_C)
    assert main(["expand-sine", "--g", limit, "--c", limit,
                 "--order", str(cli.MAX_SINE_ORDER), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exponent"] == 3 * cli.MAX_ABS_G_C - 2
    assert len(doc["coefficients"]) == cli.MAX_SINE_ORDER
    assert doc["coefficients"]["0"] == "1"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gv", "g_max": 2, '
         '"values": {"0": "1", "1": "5", "1": "7"}}', "'1'"),
        ('{"class": {"c1_dot_beta": 4, "primitive": false, "primitive": true}, "kind": "gv", '
         '"g_max": 2, "values": {"0": "1"}}', "'primitive'"),
        ('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gw", "kind": "gv", '
         '"g_max": 2, "values": {"0": "1"}}', "'kind'"),
    ],
)
def test_repeated_json_key_refused(tmp_path, capsys, monkeypatch, text, key):
    # plain json.loads keeps the last of repeated keys and would exit 0
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    monkeypatch.setattr(cli, "gw_from_gv", boom)
    path = tmp_path / "gv.json"
    path.write_text(text)
    assert main(["transform", "--direction", "gv-to-gw", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: repeated key {key} in a json object\n"


@pytest.mark.parametrize("digits", [999, 1000, 1001])
@pytest.mark.parametrize("place", ["numerator", "denominator"])
def test_value_digit_limit(tmp_path, capsys, monkeypatch, digits, place):
    # checked on the string, before Fraction() or CPython's digit cap sees it
    value = "-" + "7" * digits if place == "numerator" else "1/" + "7" * digits
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=1, values={"1": value}))
    argv = ["transform", "--direction", "ugw-to-gw", "--input", path, "--format", "json"]
    if digits <= cli.MAX_VALUE_DIGITS:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["values"]["1"] == value
        return

    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    monkeypatch.setattr(cli, "gw_from_ugw", boom)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: value for genus 1 has a numerator or denominator of "
                            f"more than {cli.MAX_VALUE_DIGITS} digits\n")


@pytest.mark.parametrize("field", ["key", "c1_dot_beta", "g_max"])
def test_long_integers_refused_before_conversion(tmp_path, capsys, field):
    # with CPython's digit cap lifted, int() of a long literal would take quadratic time
    long = "9" * (cli.MAX_VALUE_DIGITS + 1)
    doc = {"key": f'{{"class": {{"c1_dot_beta": 4, "primitive": true}}, "kind": "gv", '
                  f'"g_max": 2, "values": {{"{long}": "1"}}}}',
           "c1_dot_beta": f'{{"class": {{"c1_dot_beta": {long}, "primitive": true}}, '
                          f'"kind": "gv", "g_max": 2, "values": {{}}}}',
           "g_max": f'{{"class": {{"c1_dot_beta": 4, "primitive": true}}, "kind": "gv", '
                    f'"g_max": -{long}, "values": {{}}}}'}[field]
    path = tmp_path / "gv.json"
    path.write_text(doc)
    assert main(["transform", "--direction", "gv-to-gw", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "genus key has" if field == "key" else "json integer of"
    assert captured.err == f"error: {what} more than {cli.MAX_VALUE_DIGITS} digits\n"


def test_deeply_nested_json_refused(tmp_path, capsys, monkeypatch):
    # json.loads recurses once per level and would raise RecursionError; the
    # file nests as deep as the character limit lets it, far past the recursion limit
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    monkeypatch.setattr(cli, "gw_from_gv", boom)
    path = tmp_path / "gv.json"
    head = '{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gv", "g_max": 2, "values": '
    depth = cli.MAX_INPUT_CHARS - len(head) - 1
    assert depth > 10 * sys.getrecursionlimit()
    path.write_text(head + "[" * depth + "}")
    assert main(["transform", "--direction", "gv-to-gw", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: json nesting too deep\n"


# the table computations a refused input file must not reach
_TABLE_WORK = ("gw_from_ugw", "ugw_from_gw", "gv_from_gw", "gw_from_gv", "report_on_gv")


def test_input_char_limit_is_the_largest_canonical_table(tmp_path):
    # every limit at its extreme: c1_dot_beta, kind and g_max, and all the digits
    # the values may have, spread over every genus, each value with a sign and a "/"
    genera = cli.MAX_TABLE_G_MAX + 1
    values = {}
    for g in range(genera):
        digits = cli.MAX_TABLE_DIGITS // genera + (g < cli.MAX_TABLE_DIGITS % genera)
        den = digits // 2
        assert 2 <= den <= digits - den <= cli.MAX_VALUE_DIGITS
        values[g] = -Fraction(10 ** (digits - den) - 1, 10 ** (den - 1))
    table = GenusTable(Kind.UGW, -cli.MAX_ABS_G_C, False, values, cli.MAX_TABLE_G_MAX)
    text = dumps_canonical(table_to_doc(table))
    assert len(text) == cli.MAX_INPUT_CHARS
    path = tmp_path / "largest.json"
    path.write_text(text)
    assert load_table(str(path)) == table


def test_input_file_size_limit(tmp_path, capsys, monkeypatch):
    # whitespace padding is valid json; past the limit the file is refused unparsed
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    _forbid_computation(monkeypatch)
    limit = cli.MAX_INPUT_CHARS
    text = json.dumps(make_doc(kind="gv", g_max=1, values={"0": "1", "1": "2"}))
    path = tmp_path / "gv.json"
    path.write_text("{" + " " * (limit - len(text)) + text[1:])
    assert main(["check-integrality", "--input", str(path)]) == 0
    assert "integral: yes" in capsys.readouterr().out
    for name in _TABLE_WORK:
        monkeypatch.setattr(cli, name, boom)
    path.write_text("{" + " " * (limit + 1 - len(text)) + text[1:])
    assert main(["check-integrality", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} has more than {limit} characters\n"


def test_input_not_utf8_refused_naming_the_file(tmp_path, capsys, monkeypatch):
    # json is read as UTF-8 whatever the locale; a UTF-16 file (bytes ff fe
    # first) used to be refused with the codec's message and no file named
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    for name in _TABLE_WORK:
        monkeypatch.setattr(cli, name, boom)
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(make_doc(kind="gv", g_max=0, values={"0": "1"})).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    for argv in (["check-integrality", "--input", str(path)],
                 ["transform", "--direction", "gv-to-gw", "--input", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is not UTF-8 text (invalid start byte)\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_input_refused_promptly():
    # the whole file used to be read, here until memory ran out; the child's
    # address space is capped so that a regression fails fast
    resource = pytest.importorskip("resource")
    probe = ("import sys\nfrom sinewall import cli\n"
             "def forbid(*args, **kwargs):\n    raise AssertionError('computation started')\n"
             f"for name in {_TABLE_WORK!r}:\n    setattr(cli, name, forbid)\n"
             "sys.exit(cli.main(['check-integrality', '--input', '/dev/zero']))\n")
    cap = 512 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60, preexec_fn=limit_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: /dev/zero has more than {cli.MAX_INPUT_CHARS} characters\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int <-> str digit cap")
def test_output_past_the_int_str_cap_prints_and_round_trips(tmp_path, capsys):
    # accepted values of 999 digits whose gw transform has a longer denominator than
    # CPython's 4300-digit default cap would let str() print
    cap = sys.get_int_max_str_digits()
    values = {str(g): f"1/{10**999 - 1 - g}" for g in range(6)}
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", c=3, g_max=5, values=values))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path,
                 "--format", "json"]) == 0
    assert sys.get_int_max_str_digits() == cap
    doc = json.loads(capsys.readouterr().out)
    assert max(len(v) for v in doc["values"].values()) > 4300
    sys.set_int_max_str_digits(0)
    try:
        gw = {int(g): Fraction(v) for g, v in doc["values"].items()}
    finally:
        sys.set_int_max_str_digits(cap)
    ugw = ugw_from_gw(GenusTable(Kind.GW, 3, True, gw, 5)).dense()
    assert ugw == {int(g): Fraction(v) for g, v in values.items()}


# ---------------------------------------------------------------- transform


def test_transform_line_class(tmp_path, capsys):
    path = write_doc(tmp_path, "gv.json", make_doc(kind="gv", g_max=3, values={"0": "1"}))
    assert main(["transform", "--direction", "gv-to-gw", "--input", path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "gw"
    assert doc["values"] == {"0": "1", "1": "-1/12", "2": "1/360", "3": "-1/20160"}


def test_transform_roundtrip_bytes(tmp_path, capsys):
    doc = make_doc(kind="ugw", c=1, values={"0": "2", "1": "0", "2": "-7/3"})
    canonical = dumps_canonical(table_to_doc(parse_table_doc(doc)))
    p1 = write_doc(tmp_path, "u.json", doc)
    assert main(["transform", "--direction", "ugw-to-gw", "--input", p1,
                 "--format", "json"]) == 0
    gw_text = capsys.readouterr().out
    p2 = tmp_path / "g.json"
    p2.write_text(gw_text)
    assert main(["transform", "--direction", "gw-to-ugw", "--input", str(p2),
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == canonical


def test_transform_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=1, values={"0": "1"}))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "kind: gw" in out
    assert "g=1: -1/12" in out


def test_transform_output_file(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=0, values={"0": "1"}))
    dest = tmp_path / "out.json"
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path,
                 "--format", "json", "--output", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["kind"] == "gw"


@pytest.mark.parametrize("dest", ["missing/out.json", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, dest):
    # a missing parent directory, or a directory: exit 1 is kept for failed checks
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=0, values={"0": "1"}))
    target = tmp_path / dest
    before = sorted(tmp_path.rglob("*"))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path,
                 "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_transform_wrong_kind_exits_2(tmp_path, capsys):
    # the library call of the direction refuses the kind, naming both by their Kind.value
    path = write_doc(tmp_path, "g.json", make_doc(kind="gw", values={"0": "1"}))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gw_from_ugw expects a ugw table, got gw\n"


def test_inverse_transform_gap_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(kind="gw", g_max=2, values={"0": "1"}))
    assert main(["transform", "--direction", "gw-to-ugw", "--input", path]) == 2
    assert "missing [1, 2]" in capsys.readouterr().err


@pytest.mark.parametrize("values, missing", [
    ({"1": "-1/12", "2": "1/360", "3": "-1/20160"}, [0]),
    ({"0": "1", "1": "-1/12", "3": "-1/20160"}, [2]),
    ({"0": "1", "1": "-1/12", "2": "1/360"}, [3]),
])
@pytest.mark.parametrize("argv", [
    ["transform", "--direction", "gw-to-ugw"],
    ["transform", "--direction", "gw-to-gv"],
    ["check-integrality"],
])
def test_every_gw_path_refuses_a_table_without_every_genus(tmp_path, capsys, monkeypatch,
                                                           argv, values, missing):
    # the library's one rule, with its message, on every path that inverts a gw table
    def boom(*args, **kwargs):
        raise AssertionError("matrix built for an incomplete table")

    monkeypatch.setattr(wallcross, "_inverse_matrix", boom)
    path = write_doc(tmp_path, "g.json", make_doc(kind="gw", g_max=3, values=values))
    target = tmp_path / "out.json"
    assert main([*argv, "--input", path, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: inverse transform needs every genus 0..3; missing {missing}\n"
    assert not target.exists()


@pytest.mark.parametrize("direction, name", [
    ("gw-to-ugw", "ugw_from_gw"), ("ugw-to-gw", "gw_from_ugw"), ("gw-to-gv", "gv_from_gw"),
    ("gv-to-gw", "gw_from_gv"),
])
def test_each_direction_calls_its_library_function_by_name(tmp_path, monkeypatch, direction,
                                                           name):
    # looked up when the call runs, so a function bound in its place on the
    # module is the one called
    def reached(table):
        raise _Reached(table.kind.value)

    monkeypatch.setattr(cli, name, reached)
    kind = direction.partition("-to-")[0]
    path = write_doc(tmp_path, "t.json", make_doc(kind=kind, g_max=0, values={"0": "1"}))
    with pytest.raises(_Reached, match=f"^{kind}$"):
        main(["transform", "--direction", direction, "--input", path])


def test_direction_choices_are_the_dispatch_table():
    choices = COMMANDS["transform"][1]["--direction"]["choices"]
    assert choices == tuple(cli._DIRECTIONS) == ("gw-to-ugw", "ugw-to-gw", "gw-to-gv", "gv-to-gw")


# sha256 of `transform --help` at COLUMNS=80, recorded while the direction
# choices were spelt out in COMMANDS; Python 3.13 changed argparse's layout
TRANSFORM_HELP_SHA256 = {
    False: "490c83345ef17f6221b1cc05f7cb6183ce6b60fc8aeab8149ee889613014af10",
    True: "ecb32f46b96ba9dc073917b553efbb82a9b2b1f3207b0fb1aa2cd207739b6564",
}


def test_transform_help_is_unchanged():
    proc = subprocess.run([sys.executable, "-m", "sinewall.cli", "transform", "--help"],
                          capture_output=True, env=dict(CHILD_ENV, COLUMNS="80"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == TRANSFORM_HELP_SHA256[sys.version_info >= (3, 13)]


def test_forward_transform_fills_gaps_with_zero(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=2, c=0,
                                                  values={"1": "1"}))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == {"0": "0", "1": "1", "2": "0"}


def test_transform_gate_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "gv.json",
                     make_doc(kind="gv", c=0, primitive=False, values={"0": "1"}))
    assert main(["transform", "--direction", "gv-to-gw", "--input", path]) == 2


def test_gw_to_gv_integral_exits_0(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(
        kind="gw", g_max=2, values={"0": "1", "1": "-1/12", "2": "1/360"}))
    assert main(["transform", "--direction", "gw-to-gv", "--input", path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "gv"
    assert doc["values"] == {"0": "1", "1": "0", "2": "0"}


def test_gw_to_gv_non_integral_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(
        kind="gw", g_max=2, values={"0": "1", "1": "-1/12", "2": "361/360000"}))
    assert main(["transform", "--direction", "gw-to-gv", "--input", path]) == 1
    captured = capsys.readouterr()
    # the table is still emitted alongside the failing status
    assert "integral: NO" in captured.out
    assert "check failed" in captured.err


# ---------------------------------------------------------------- check


def test_check_integrality_gw_pass(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(
        kind="gw", g_max=2, values={"0": "1", "1": "-1/12", "2": "1/360"}))
    assert main(["check-integrality", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integral"] is True
    assert doc["largest_nonzero_genus"] == 0
    assert doc["table"]["kind"] == "gv"


def test_check_integrality_gw_fail(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(
        kind="gw", g_max=2, values={"0": "1", "1": "-1/12", "2": "361/360000"}))
    assert main(["check-integrality", "--input", path]) == 1
    assert "non-integral genera: [2]" in capsys.readouterr().out


def test_check_integrality_gv_direct(tmp_path, capsys):
    path = write_doc(tmp_path, "v.json", make_doc(
        kind="gv", c=-2, g_max=1, values={"0": "3", "1": "1/2"}))
    # class gate does not apply when the values are already BPS numbers
    assert main(["check-integrality", "--input", path]) == 1
    assert "non-integral genera: [1]" in capsys.readouterr().out


def test_check_integrality_ugw_gated(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", make_doc(
        kind="ugw", c=-1, g_max=0, values={"0": "1"}))
    assert main(["check-integrality", "--input", path]) == 2


def test_check_integrality_ugw_pass(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", make_doc(
        kind="ugw", c=2, g_max=1, values={"0": "4", "1": "-2"}))
    assert main(["check-integrality", "--input", path]) == 0
    assert "integral: yes" in capsys.readouterr().out


# ---------------------------------------------------------------- verify


def test_verify_identities_text(capsys):
    assert main(["verify-identities", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 4
    assert "overall: pass" in out


def test_verify_identities_json(capsys):
    assert main(["verify-identities", "--order", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 4
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4
    assert all(chk["passed"] for chk in doc["checks"])
    assert all(chk["first_failure"] is None for chk in doc["checks"])


VERIFY_ROWS = (
    ("raw-sum vs closed-form multiplier", lambda order: 180),
    ("bracket-reduction sum vs closed form", lambda order: 133),
    ("vertex closed form vs local expansion", lambda order: order // 2),
    ("expansion ratio vs marked-point constants", lambda order: order // 2),
)


@pytest.mark.parametrize("order", range(15))
def test_verify_identities_stdout_is_the_assembled_report(order, capsys):
    # the whole stdout, byte for byte, in both formats
    rows = [(name, cells(order)) for name, cells in VERIFY_ROWS]
    text = "".join(f"{name}: pass ({n} cells)\n" for name, n in rows) + "overall: pass\n"
    doc = {"order": order, "passed": True,
           "checks": [{"name": name, "passed": True, "cells": n, "first_failure": None}
                      for name, n in rows]}
    assert main(["verify-identities", "--order", str(order)]) == 0
    assert capsys.readouterr().out == text
    assert main(["verify-identities", "--order", str(order), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# sha256 of the whole verify-identities stdout above the byte-for-byte range,
# recorded before the grids read their closed sides from one table of sine
# powers; order 57 from the handler itself, before the raw tables were built
# by a prefix walk and when the CLI still refused orders above 50; orders 6, 8
# and 10, the benchmark's, before both grids shared one table of sine powers
# and the vertex values came from one build
VERIFY_STDOUT_SHA256 = {
    (6, "text"): "f63d9c3f91850969504b84622521f62b44b14a689d8f1661bc754b9430e4336e",
    (6, "json"): "46ab2917c22bf352e0c855658ad3c0ccdd0be89c30b164e7c2395730e1a52f31",
    (8, "text"): "2513a25de9ddd215d54e36505cab2ed8629d61ae5bd7584d09a3c293c8ff6cc1",
    (8, "json"): "e07862d5232dc8dcb9ec122ee3a305da016e8f1f4e4da3bf3b7aaa207a08b203",
    (10, "text"): "fd6b2a63eb7ea723ceacc5441586728b8ad0abc6468aba8e002e60a4d819eb10",
    (10, "json"): "f40cd5ae848ebe9fa1f2853bf870ed1d7e94b22a2087c23422a88347a2c5af95",
    (20, "text"): "ce5f4cddefbd9edaf3247cca008df45c5fdeb18943f70a5e73ff8433ed9c9aca",
    (20, "json"): "6a3d99db6f7c9e5d04dd3b2d688f6ab911e97a51bd4929ef526315f6aa1b0674",
    (30, "text"): "89cbb829bb0c20e84bd89263771be2d9dd2ad63b763c9e91abb10e1d03195583",
    (30, "json"): "dceea5b8f74b32c4ef65ac79eb4b96c7bb727c0aae2607ed044d9da0adbb4ff0",
    (40, "text"): "968ad385bfa9cc96ca870c371eb94e35ce868c2633f7c4a239f199ba751d65fb",
    (40, "json"): "2b84821020a27ad7e607d5497e5af3a7cb409000e1fcc5590b1525bc285d8078",
    (50, "text"): "a414f74badc535f909d53e3c11135285ab792019f737f734ee92289a5aba51af",
    (50, "json"): "31cf94e60a01df328782d9de7bd9632b6c2abe0b81983b0d60639e730432d1f2",
    (57, "text"): "9bb8667d880d2c773b72ce98f567d1e9c702d1e4264b3d609b1987290cc4a8fb",
    (57, "json"): "6f0eb1b789b43bdb653118c67b4c196a768e42883356c5bc5b3fa9532490c4e6",
}


@pytest.mark.parametrize("order", (6, 8, 10, 20, 30, 40, 50, 57))
def test_verify_identities_stdout_pinned_at_high_order(order, capsys):
    for fmt in ("text", "json"):
        assert main(["verify-identities", "--order", str(order), "--format", fmt]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == VERIFY_STDOUT_SHA256[order, fmt]


def test_verify_identities_passes_at_its_limit(capsys):
    # the largest accepted order runs to the end and passes, in about 1 s
    order = cli.MAX_VERIFY_ORDER
    assert main(["verify-identities", "--order", str(order), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [chk["cells"] for chk in doc["checks"]] == [cells(order) for _, cells in VERIFY_ROWS]


def test_verify_identities_builds_one_expansion(capsys, monkeypatch):
    # both expansion checks read one shared expansion
    calls = []
    build = hodge.i_function_expansion

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(hodge, "i_function_expansion", counting)
    monkeypatch.setattr(cli, "i_function_expansion", counting)
    assert main(["verify-identities", "--order", "7"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert calls == [(8,)]


def test_verify_identities_computes_each_vertex_constant_once(capsys, monkeypatch):
    # both grids' vertex series and the two expansion checks share one build
    # of the vertex values, at the eq grid's top genus, which builds S once;
    # mu_{g,1} reads it.  The memo keeps the largest build, so it is emptied
    # to see this call's build
    monkeypatch.setattr(hodge, "_memo", ())
    orders = []
    build = hodge.sinc_half

    def counting(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(hodge, "sinc_half", counting)
    assert main(["verify-identities", "--order", "10"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    # genera 1..6 from one build at order 2 * 6 + 2, the expansion at 12
    assert sorted(orders) == [12, 14]
    assert len(hodge._memo) == 6
    # every smaller top, and each single genus, reads a prefix of that build
    assert hodge.mu_values(5) == hodge._memo[:5]
    assert [hodge.mu_g1(g) for g in range(1, 7)] == [mv.a1 for mv in hodge._memo]
    assert sorted(orders) == [12, 14]


@pytest.mark.parametrize("order", (0, 1, 8, 11, 57))
def test_verify_identities_builds_one_table_and_one_vertex_build(order, capsys, monkeypatch):
    # one table of sine powers serves both grids' closed sides, one table of
    # Psi^j Delta^i serves both grids' computed sides, and one build of the
    # vertex values, at genus order // 2 + 1, serves both grids and both
    # expansion checks: S is built for it through u^(2 top + 2) and for the
    # expansion through u^(2 top), and nowhere else in hodge.  The M ladder,
    # of mu1, is built once, for the raw grid at its own size
    monkeypatch.setattr(hodge, "_memo", ())
    tables, powers, ladders, sinc_orders = [], [], [], []
    table, power, ladder, sinc = (wallcross._sine_powers, wallcross._vertex_powers,
                                  wallcross._series_powers, hodge.sinc_half)

    def counting_table(ks, size):
        tables.append((sorted(set(ks)), size))
        return table(ks, size)

    def counting_powers(vertex, size):
        powers.append((vertex, size))
        return power(vertex, size)

    def counting_ladder(values, size):
        ladders.append((values, size))
        return ladder(values, size)

    def counting_sinc(order):
        sinc_orders.append(order)
        return sinc(order)

    monkeypatch.setattr(wallcross, "_sine_powers", counting_table)
    monkeypatch.setattr(wallcross, "_vertex_powers", counting_powers)
    monkeypatch.setattr(wallcross, "_series_powers", counting_ladder)
    monkeypatch.setattr(hodge, "sinc_half", counting_sinc)
    assert main(["verify-identities", "--order", str(order), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert tables == [(list(range(-18, 13)), order // 2 + 2)]
    ((vertex, size),) = powers
    assert size == order // 2 + 2
    assert [(values is vertex.mu1, n) for values, n in ladders] == [
        (False, size), (False, size), (True, order // 2 + 1)]
    top = order // 2 + 1
    assert sorted(sinc_orders) == [2 * top, 2 * top + 2]
    assert len(hodge._memo) == top


# ---------------------------------------------------------------- exit 1
# A failed check writes its whole report, then one stderr line, then exits 1.

NON_INTEGRAL_GW = make_doc(kind="gw", g_max=2, values={"0": "1", "1": "-1/12", "2": "361/360000"})
NON_INTEGRAL_GV = make_doc(kind="gv", g_max=2, values={"0": "1", "1": "0", "2": "-71/40000"})
CAVEAT = "genera above g_max=2 are unknown; vanishing beyond that bound is not verified"
NON_INTEGRAL_TEXT = (
    "kind: gv  c1.beta: 4  primitive: true  g_max: 2\n"
    "g=0: 1\ng=1: 0\ng=2: -71/40000\n"
    "integral: NO\nnon-integral genera: [2]\nlargest nonzero genus: 2\n"
    f"caveat: {CAVEAT}\n"
)
NON_INTEGRAL_REPORT = {"integral": False, "non_integral_genera": [2], "largest_nonzero_genus": 2,
                       "truncation_caveat": CAVEAT, "table": NON_INTEGRAL_GV}


@pytest.mark.parametrize("argv, fmt, out, err", [
    (["transform", "--direction", "gw-to-gv"], "text", NON_INTEGRAL_TEXT,
     "check failed: GV values non-integral at genera [2]\n"),
    (["transform", "--direction", "gw-to-gv"], "json", json.dumps(NON_INTEGRAL_GV, indent=2) + "\n",
     "check failed: GV values non-integral at genera [2]\n"),
    (["check-integrality"], "text", NON_INTEGRAL_TEXT,
     "check failed: non-integral at genera [2]\n"),
    (["check-integrality"], "json", json.dumps(NON_INTEGRAL_REPORT, indent=2) + "\n",
     "check failed: non-integral at genera [2]\n"),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_integral_report_then_exit_1(tmp_path, capsys, argv, fmt, out, err, to_file):
    path = write_doc(tmp_path, "g.json", NON_INTEGRAL_GW)
    dest = tmp_path / "report"
    argv = argv + ["--input", path, "--format", fmt] + (["--output", str(dest)] if to_file else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (dest.read_text() if to_file else captured.out) == out
    assert captured.out == ("" if to_file else out)
    assert captured.err == err


def _verify_report(order, failures):
    """The report of `verify-identities --order order` in both formats; failures: row -> text."""
    rows = [(name, cells(order), failures.get(i)) for i, (name, cells) in enumerate(VERIFY_ROWS)]
    text = "".join(f"{name}: {'FAIL' if fail else 'pass'} ({n} cells)"
                   + (f" first failure {fail}" if fail else "") + "\n"
                   for name, n, fail in rows)
    text += f"overall: {'FAIL' if failures else 'pass'}\n"
    doc = {"order": order, "passed": not failures,
           "checks": [{"name": name, "passed": fail is None, "cells": n, "first_failure": fail}
                      for name, n, fail in rows]}
    return text, json.dumps(doc, indent=2) + "\n"


def _bump_raw_vertex(monkeypatch):
    """Run the CLI's grids on a vertex table with mu_{1,1} bumped; return the raw report at 10.

    The eq grid never reads mu1, so only the raw grid fails.
    """
    grids = cli.verify_grids

    def bumped(order):
        vertex = VertexData.standard(order // 2 + 1).perturbed("mu1", 1, Fraction(1, 1000))
        return grids(order, vertex=vertex)

    monkeypatch.setattr(cli, "verify_grids", bumped)
    return bumped(10)[0]


def _bump_expansion(monkeypatch, genus, power):
    """Run the CLI's expansion checks on an expansion bumped at one (genus, z^power H^0 c1^0)."""
    build = cli.i_function_expansion

    def bumped(order_u):
        expansion = build(order_u)
        terms = expansion[genus] = dict(expansion[genus])
        terms[(power, 0, 0)] = terms.get((power, 0, 0), 0) + Fraction(1, 1000)
        return expansion

    monkeypatch.setattr(cli, "i_function_expansion", bumped)
    return bumped(12)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_identities_raw_failure_exits_1(capsys, monkeypatch, fmt):
    rep = _bump_raw_vertex(monkeypatch)
    assert not rep.passed and len(rep.first_failure.key) == 3  # (g0, n, c)
    failure = f"{rep.first_failure.key}: {rep.first_failure.detail}"
    text, doc = _verify_report(10, {0: failure})
    assert main(["verify-identities", "--order", "10", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == (text if fmt == "text" else doc)
    assert captured.err == "check failed: identity verification failed\n"
    if fmt == "text":
        assert (f"raw-sum vs closed-form multiplier: FAIL (180 cells) first failure "
                f"{rep.first_failure.key}: ") in captured.out
        assert captured.out.endswith("overall: FAIL\n")


@pytest.mark.parametrize("genus, power, rows", [(3, 0, [2]), (4, 1, [2, 3])])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_identities_expansion_failure_exits_1(capsys, monkeypatch, genus, power, rows, fmt):
    # the acceptance negative control, through the CLI: a z^0 bump fails the
    # closed-form row, a z^1 bump both rows
    expansion = _bump_expansion(monkeypatch, genus, power)
    reps = [hodge.verify_mu_consistency(expansion), hodge.verify_i_ratio(expansion)]
    assert [2 + i for i, rep in enumerate(reps) if not rep.passed] == rows
    assert all(rep.first_failure == genus for rep in reps if not rep.passed)
    # each failing row names its first mismatching term, as a grid cell does;
    # the ratio row's term is one of expansion / z
    a = hodge.mu_g1(genus)
    bumped = f"got {a + Fraction(1, 1000)}, want {a}"
    details = {(3, 0): ["z^0 H^0 c1^0: got 1/1000, want 0"],
               (4, 1): [f"z^1 H^0 c1^0: {bumped}", f"z^0 H^0 c1^0: {bumped}"]}[genus, power]
    assert [rep.detail for rep in reps if not rep.passed] == details
    text, doc = _verify_report(10, {2 + i: f"genus {genus}: {rep.detail}"
                                    for i, rep in enumerate(reps) if not rep.passed})
    assert main(["verify-identities", "--order", "10", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == (text if fmt == "text" else doc)
    assert f"first failure genus {genus}: {details[0]}\n" in text
    assert captured.err == "check failed: identity verification failed\n"


def test_verify_identities_shared_vertex_build_hides_no_fault(capsys, monkeypatch):
    # one build of the vertex values serves both grids and the closed-form
    # check, so a fault in it shows in all three: b_3 (the coefficient of
    # 3H + c1 in mu_{3,0}) bumped by 1/1000 is Delta's x^3 term in the raw
    # grid's insertions and t2's in the eq basis, and the expansion disagrees
    # with it; mu_{3,1} = a_3 is untouched, so the ratio check alone passes
    build, bump = hodge.mu_values, Fraction(1, 1000)

    def bumped(g_top):
        values = list(build(g_top))
        if g_top >= 3:
            mv = values[2]
            values[2] = mv._replace(a_H=mv.a_H + 3 * bump, a_c1=mv.a_c1 + bump)
        return tuple(values)

    monkeypatch.setattr(hodge, "mu_values", bumped)
    assert main(["verify-identities", "--order", "10", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: identity verification failed\n"
    checks = json.loads(captured.out)["checks"]
    assert [(check["name"], check["passed"]) for check in checks] == [
        ("raw-sum vs closed-form multiplier", False),
        ("bracket-reduction sum vs closed form", False),
        ("vertex closed form vs local expansion", False),
        ("expansion ratio vs marked-point constants", True)]
    # each grid first differs at u^6 = x^3, the expansion check at genus 3
    assert [check["first_failure"].split(": ")[1] for check in checks[:2]] == ["u^6"] * 2
    assert checks[2]["first_failure"].startswith("genus 3: ")

    # both grids read one table of Psi^j Delta^i, so a fault in it shows in
    # both: Psi Delta's x^3 term bumped by 1/1000 is an insertion list of
    # genus 3 in the raw grid and the t1 t2 term in the eq basis; the vertex
    # values are untouched, so both expansion checks pass
    monkeypatch.undo()
    powers = wallcross._vertex_powers

    def bumped_table(vertex, size):
        mixed = powers(vertex, size)
        nums, den = mixed[1][1]  # Psi^1 Delta^1
        mixed[1][1] = [x * 1000 + den * (i == 3) for i, x in enumerate(nums)], den * 1000
        return mixed

    monkeypatch.setattr(wallcross, "_vertex_powers", bumped_table)
    assert main(["verify-identities", "--order", "10", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [check["passed"] for check in checks] == [False, False, True, True]
    assert [check["first_failure"].split(": ")[1] for check in checks[:2]] == ["u^6"] * 2


@pytest.mark.parametrize("argv", [
    ["transform", "--direction", "gw-to-gv"],
    ["check-integrality"],
    ["verify-identities", "--order", "10"],
])
def test_unwritable_output_on_a_failed_check_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the write fails before the check is reported: exit 2, not 1
    _bump_raw_vertex(monkeypatch)
    if argv[0] != "verify-identities":
        argv = argv + ["--input", write_doc(tmp_path, "g.json", NON_INTEGRAL_GW)]
    target = tmp_path / "missing" / "out"
    assert main(argv + ["--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- mu / expand


def test_mu_text(capsys):
    assert main(["mu", "--g-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "g=1: mu0 = -1/12*z - 1/24*H - 1/24*c1 ; mu1 = -1/12" in out
    assert "g=2:" in out and "1/360" in out


def test_mu_json(capsys):
    assert main(["mu", "--g-max", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"]["3"] == {
        "z": "-1/20160", "H": "-11/48384", "c1": "-67/725760",
        "scalar": "0", "mu1": "-1/20160",
    }


# sha256 of the whole `mu --g-max 40` stdout at the CLI's limit, recorded
# while `MuValue` still carried a scalar field that every genus left at 0
MU_STDOUT_SHA256 = {
    "json": "7173baa6ff3a1883ca2960b046171510c97bfa78c057a2b6321e2313d145bf11",
    "text": "00b9cd56d71a88c2f09e5184ada520b469976e4a528dd9743c8eef3fecee46d7",
}


@pytest.mark.parametrize("fmt", sorted(MU_STDOUT_SHA256))
def test_mu_stdout_pinned_at_its_limit(fmt, capsys):
    assert cli.MAX_MU_G_MAX == 40
    assert main(["mu", "--g-max", "40", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == MU_STDOUT_SHA256[fmt]


def test_expand_sine_text(capsys):
    assert main(["expand-sine", "--g", "0", "--c", "4", "--order", "6"]) == 0
    assert capsys.readouterr().out == "u^0: 1\nu^2: -1/12\nu^4: 1/360\n"


def test_expand_sine_json(capsys):
    assert main(["expand-sine", "--g", "1", "--c", "0", "--order", "4",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exponent"] == 0
    assert doc["coefficients"] == {"0": "1", "1": "0", "2": "0", "3": "0"}


def test_expand_sine_default_order(capsys):
    assert main(["expand-sine", "--g", "0", "--c", "4"]) == 0
    assert "u^8:" in capsys.readouterr().out


# ---------------------------------------------------------------- usage


def test_missing_direction_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--input", "x.json"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sinewall.cli", "expand-sine", "--g", "0",
         "--c", "4", "--order", "6"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "u^0: 1\nu^2: -1/12\nu^4: 1/360\n"


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the `sinewall` console script calls main() with no argument; the
    # "=" form takes the argparse path, the other the table reader's
    for argv in (["expand-sine", "--g", "0", "--c", "4", "--order", "6"],
                 ["expand-sine", "--g=0", "--c", "4", "--order", "6"]):
        monkeypatch.setattr(sys, "argv", ["sinewall", *argv])
        assert main() == 0
        assert capsys.readouterr().out == "u^0: 1\nu^2: -1/12\nu^4: 1/360\n"


def test_module_help_exits_0(monkeypatch):
    # argparse wraps help at $COLUMNS, else at the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "sinewall.cli", "--help"],
                          capture_output=True, text=True, env=dict(CHILD_ENV, COLUMNS="80"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: sinewall [-h]")
    assert proc.stdout == build_parser().format_help()
    assert proc.stderr == ""


# ---------------------------------------------------------------- table reader


_FLAGS = sorted({flag for _, options in COMMANDS.values() for flag in options})
_VALUES = ("-1", "-0", "-1.5", "-x", "-", "", " 3", "1_0", "\u0663", "3", "0", "t.json",
           "json", "text", "xml", "gw-to-ugw", "ugw-to-gw", "gw-to-gv", "gv-to-gw")
_flag = st.one_of(
    st.sampled_from(_FLAGS),                                                       # exact
    st.sampled_from(sorted({f[:k] for f in _FLAGS for k in range(3, len(f))})),   # abbreviated
    st.sampled_from(("--frob", "-x", "-h", "--help", "--")),                      # unknown, help
)
_value = st.sampled_from(_VALUES)
_stray_group = st.one_of(
    st.tuples(_flag, _value),
    st.tuples(st.builds(lambda f, v: f"{f}={v}", _flag, _value)),
    st.tuples(st.one_of(_flag, _value)),
)


def _option_value(spec):
    if "choices" in spec:
        return st.one_of(st.sampled_from(spec["choices"]), _value)
    if "type" in spec:
        return st.one_of(st.sampled_from(("3", "0", "-1", "-0", " 3", "1_0", "\u0663")), _value)
    return _value


@st.composite
def _argv(draw):
    """Mostly canonical argv: the command's options in any order, each given or
    left out, with stray groups inserted, so both readers see both kinds."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate", ""]))
    options = COMMANDS[command if command in COMMANDS else "mu"][1]  # unknown: mu's options
    groups = []
    for flag in draw(st.permutations(list(options))):
        # a required option is left out one time in eight, an optional one half the time
        if draw(st.integers(0, 7)) < (7 if options[flag].get("required") else 4):
            groups.append((flag, draw(_option_value(options[flag]))))
    for group in draw(st.lists(_stray_group, max_size=2)):
        groups.insert(draw(st.integers(0, len(groups))), group)
    return [command, *(token for group in groups for token in group)]


@settings(max_examples=600)
@given(argv=_argv())
@example(argv=["mu", "--g-max", "-1"])
@example(argv=["expand-sine", "--g", "\u0663", "--c", "-0", "--order", " 3"])
@example(argv=["transform", "--input", "", "--direction", "gv-to-gw", "--format", "json"])
@example(argv=["verify-identities", "--order", "1_0", "--output", "t.json"])
@example(argv=["check-integrality", "--input", "-1.5"])
def test_table_reader_matches_argparse(argv):
    # whenever the table reader accepts an argv, argparse reads it the same;
    # repeated options, missing required ones and the rest are argparse's
    ns = cli._read_canonical(argv)
    if ns is not None:
        assert vars(ns) == vars(build_parser().parse_args(argv))


def test_table_reader_leaves_the_rest_to_argparse():
    for argv in ([], ["mu", "--g-max"], ["mu", "--g", "3"], ["mu", "--g-max=3"],
                 ["mu", "--g-max", "3", "--g-max", "4"], ["expand-sine", "--g", "1"],
                 ["mu", "--format", "xml"], ["mu", "--g-max", "x"], ["mu", "--g-max", "-x"],
                 ["transform", "--input", "-", "--direction", "gw-to-gv"], ["mu", "-h"],
                 ["mu", "--", "--g-max", "3"], ["frobnicate"]):
        assert cli._read_canonical(argv) is None, argv


# the work that an exit-2 path must not reach: both transform matrices, both
# grids, the vertex values and the power kernel, under every name a caller reads
_WORK = ((wallcross, "_transform_matrix"), (wallcross, "_inverse_matrix"), (cli, "verify_grids"),
         (hodge, "mu_values"), (cli, "mu_values"), (series, "pow_int"), (wallcross, "pow_int"))


_T_JSON = json.dumps(NON_INTEGRAL_GW)


class _Tee(io.StringIO):
    """One output stream that also logs every write, in order, to a shared list."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def write(self, text):
        self.log.append(text)
        return super().write(text)


def _run_recorded(argv, table=_T_JSON):
    """main(argv) in a fresh cwd holding t.json: (status, stdout, stderr, both, work, files)."""
    log = []
    out, err = _Tee(log), _Tee(log)
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        Path(tmp, "t.json").write_text(table)
        stack.enter_context(contextlib.chdir(tmp))
        spies = {f"{module.__name__}.{name}": stack.enter_context(
                     mock.patch.object(module, name, wraps=getattr(module, name)))
                 for module, name in _WORK}
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            status = main(argv)
        except SystemExit as e:  # argparse: usage errors and help
            status = e.code
        work = [name for name, spy in spies.items() if spy.called]
        files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
    return status, out.getvalue(), err.getvalue(), "".join(log), work, files


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
@example(argv=["transform", "--direction", "gw-to-gv", "--input", "t.json"])
@example(argv=["check-integrality", "--input", "t.json", "--output", "json"])
@example(argv=["transform", "--direction", "ugw-to-gw", "--input", "t.json"])
@example(argv=["verify-identities", "--order", "-1"])
@example(argv=["mu", "--g-max", "3", "--frob"])
def test_cli_contract_on_generated_argv(argv):
    # every argv ends in 0, 1 or 2 and raises nothing else; exit 2 prints an
    # error or argparse's usage and no report, and is reached before any of
    # the work above; exit 1 writes the report and then says what failed
    status, out, err, both, work, files = _run_recorded(argv)
    assert status in (0, 1, 2), (argv, status)
    if status == 0:
        assert err == ""
    elif status == 1:
        assert err.startswith("check failed: ") and err.count("\n") == 1, err
        # the report went to stdout before the failure, or to an --output file
        if out:
            assert both == out + err
        else:
            assert any(text != _T_JSON for text in files.values()), (argv, files)
    else:
        assert out == ""
        assert err.startswith("error: ") or (err.startswith("usage: ") and ": error: " in err), err
        assert work == [], (argv, work)


@st.composite
def _table_doc(draw):
    """A valid table document: g_max <= 6, some genera left out, values of at most 30 digits."""
    g_max = draw(st.integers(0, 6))
    value = st.builds(Fraction, st.integers(1 - 10**15, 10**15 - 1), st.integers(1, 10**15 - 1))
    return make_doc(kind=draw(st.sampled_from(("gw", "ugw", "gv"))), c=draw(st.integers(-3, 6)),
                    primitive=draw(st.booleans()), g_max=g_max,
                    values={str(g): str(draw(value)) for g in draw(st.sets(st.integers(0, g_max)))})


_TABLE_COMMANDS = (*(["transform", "--direction", d] for d in COMMANDS["transform"][1]
                                                         ["--direction"]["choices"]),
                   ["check-integrality"])


@settings(max_examples=40, deadline=None)
@given(doc=_table_doc(), mangle=st.one_of(st.none(), st.sampled_from(_MANGLES)),
       command=st.sampled_from(_TABLE_COMMANDS), fmt=st.sampled_from(("json", "text")))
def test_cli_contract_on_generated_table_files(doc, mangle, command, fmt):
    # a table file ends in 0, 1 or 2; exit 2 comes before any of the work
    # above and is the only end of a mangled file; exit 0 in json prints json;
    # and a valid table, read as ugw, comes back from ugw-to-gw then gw-to-ugw
    # as its canonical form, byte for byte
    text = json.dumps(doc)
    if mangle is not None:
        mangled = json.loads(text)
        mangle(mangled)
        text = json.dumps(mangled)
    status, out, err, _, work, _ = _run_recorded(
        [*command, "--input", "t.json", "--format", fmt], text)
    assert status in ((2,) if mangle else (0, 1, 2)), (status, err)
    if status == 0 and fmt == "json":
        json.loads(out)
    if status == 2:
        assert out == "" and err.startswith("error: ") and work == [], (err, work)
    if mangle is not None:
        return
    ugw = dict(doc, kind="ugw")
    dense = {str(g): ugw["values"].get(str(g), "0") for g in range(ugw["g_max"] + 1)}
    canonical = json.dumps(dict(ugw, values=dense), indent=2) + "\n"
    forward = ["transform", "--direction", "ugw-to-gw", "--input", "t.json", "--format", "json"]
    status, gw, err, *_ = _run_recorded(forward, json.dumps(ugw))
    assert (status, err) == (0, "")
    back = ["transform", "--direction", "gw-to-ugw", "--input", "t.json", "--format", "json"]
    assert _run_recorded(back, gw)[:3] == (0, canonical, "")


def test_parser_options_match_table():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(subparsers.choices) == list(COMMANDS)
    for command, parser in subparsers.choices.items():
        options = [a for a in parser._actions if a.dest != "help"]
        assert [s for a in options for s in a.option_strings] == list(COMMANDS[command][1])
        for action in options:
            spec = COMMANDS[command][1][action.option_strings[0]]
            assert action.dest == action.option_strings[0][2:].replace("-", "_")
            assert (action.type, action.choices, action.required, action.default) == (
                spec.get("type"), spec.get("choices"), spec.get("required", False),
                spec.get("default"))


# ---------------------------------------------------------------- empty paths


@pytest.mark.parametrize("argv", [
    ["transform", "--direction", "ugw-to-gw", "--input", ""],
    ["transform", "--direction", "ugw-to-gw", "--input=", "--format", "json"],
    ["check-integrality", "--input", ""],
])
def test_empty_input_path_refused(capsys, monkeypatch, argv):
    # "" is not read as the current directory
    def boom(*args, **kwargs):
        raise AssertionError("input read before the argument check")

    monkeypatch.setattr(cli, "load_table", boom)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --input must name a file, got an empty path\n"


def test_empty_output_path_refused(tmp_path, capsys, monkeypatch):
    # "" is not read as "no --output": the report would go to stdout
    _forbid_computation(monkeypatch)
    path = write_doc(tmp_path, "u.json", make_doc(kind="ugw", g_max=0, values={"0": "1"}))
    for argv in (["verify-identities", "--order", "4", "--output", ""],
                 ["transform", "--direction", "ugw-to-gw", "--input", path, "--output", ""]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --output must name a file, got an empty path\n"
