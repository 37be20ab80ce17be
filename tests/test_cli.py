"""Command-line surface: schema validation, directions, exit codes, formats."""

import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sinewall import cli, hodge
from sinewall.cli import (
    CheckFailed,
    ParseError,
    dumps_canonical,
    load_table,
    main,
    parse_table_doc,
    table_to_doc,
)
from sinewall.wallcross import GenusTable, Kind, ugw_from_gw


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


@pytest.mark.parametrize(
    "mangle",
    [
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
    ],
)
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


def _forbid_computation(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the argument check")

    for name in ("verify_raw_equals_closed", "sine_factor", "mu_g0", "mu_g1"):
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
    assert main(["mu", "--g-max", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == '{\n  "mu": {}\n}\n'


class _Reached(Exception):
    """Raised by a patched computation: the argument check let the call through."""


@pytest.mark.parametrize(
    "argv, name, limit, patched",
    [
        (["verify-identities", "--order"], "order", cli.MAX_VERIFY_ORDER,
         ("verify_raw_equals_closed",)),
        (["expand-sine", "--g", "1", "--c", "3", "--order"], "order", cli.MAX_SINE_ORDER,
         ("sine_factor",)),
        (["mu", "--format", "json", "--g-max"], "g_max", cli.MAX_MU_G_MAX, ("mu_g0", "mu_g1")),
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
    baseline = [node for node in ast.walk(ast.parse((bench / "run.py").read_text()))
                if isinstance(node, ast.For) and getattr(node.target, "id", None) == "g_max"]
    assert len(baseline) == 1
    found.update(ast.literal_eval(baseline[0].iter))
    assert 40 in found and 80 in found
    return found


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
    # json.loads recurses once per level and would raise RecursionError
    def boom(*args, **kwargs):
        raise AssertionError("computation started before the input check")

    monkeypatch.setattr(cli, "gw_from_gv", boom)
    path = tmp_path / "gv.json"
    path.write_text('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "gv", '
                    '"g_max": 2, "values": ' + "[" * 100_000 + "}")
    assert main(["transform", "--direction", "gv-to-gw", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: json nesting too deep\n"


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
    path = write_doc(tmp_path, "g.json", make_doc(kind="gw", values={"0": "1"}))
    assert main(["transform", "--direction", "ugw-to-gw", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_inverse_transform_gap_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", make_doc(kind="gw", g_max=2, values={"0": "1"}))
    assert main(["transform", "--direction", "gw-to-ugw", "--input", path]) == 2
    assert "missing [1, 2]" in capsys.readouterr().err


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


def test_verify_identities_passes_at_its_limit(capsys):
    # the largest accepted order runs to the end and passes, in about 1.5 s
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
    # the raw grid's vertex table and the two expansion checks share one
    # computation of mu_{g,0} per genus, which builds S once; mu_{g,1} reads it
    hodge.mu_g0.cache_clear()
    orders = []
    build = hodge.sinc_half

    def counting(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(hodge, "sinc_half", counting)
    assert main(["verify-identities", "--order", "10"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    # genera 1..5: mu_g0(g) at order 2g + 2, the expansion at 12
    assert sorted(orders) == [2 * g + 2 for g in range(1, 6)] + [12]


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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "u^0: 1\nu^2: -1/12\nu^4: 1/360\n"
