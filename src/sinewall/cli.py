"""Command-line surface: table transforms, integrality checks, identity suites.

Tables travel as json documents:

    {
      "class": { "c1_dot_beta": <integer>, "primitive": <boolean> },
      "kind": "gw" | "ugw" | "gv",
      "g_max": <integer>,
      "values": { "<genus>": "<p/q>" }
    }

Rationals are exact strings in lowest terms; genera absent from "values"
are an error below g_max for inverse transforms (gw-to-ugw, gw-to-gv) and
read as zero for forward ones.  Serialization is canonical (fixed key
order, genus keys 0..g_max in numeric order, two-space indent, trailing
newline), so parse followed by serialize is byte-identical on canonical
input.

A repeated key in any json object is refused rather than letting the last
one win.  `verify-identities --order`, `expand-sine --order` and
`mu --g-max` are bounded by MAX_VERIFY_ORDER, MAX_SINE_ORDER and
MAX_MU_G_MAX, and `expand-sine --g/--c` and a table's c1_dot_beta by
MAX_ABS_G_C in absolute value, and a table's g_max by MAX_TABLE_G_MAX; a
larger value is refused before any computation.  The numerator and the
denominator of a table value, a genus key and a json integer are bounded
by MAX_VALUE_DIGITS digits, checked on the string before any integer
conversion.  Once the arguments are parsed, `main` lifts CPython's cap on
int <-> str conversion and restores it on return, so the output of every
accepted input prints.

Each call is usually a fresh process, so import time is paid per call:
the package imports all its modules eagerly (bench/tracer.py wraps only
the modules loaded when it installs), and none of them imports
dataclasses, which would pull in inspect, ast and dis.

Exit status: 0 success, 1 check failure (non-integral GV, identity
mismatch), 2 input or usage error, an unwritable --output included.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .gv import GVReport, gate_check, gv_from_gw, gw_from_gv, report_on_gv
from .hodge import i_function_expansion, mu_g0, mu_g1, verify_i_ratio, verify_mu_consistency
from .wallcross import (
    GenusTable,
    Kind,
    gw_from_ugw,
    sine_factor,
    ugw_from_gw,
    verify_eq_sum,
    verify_raw_equals_closed,
)

# Largest accepted values.  On a 2-core VM with Python 3.11 each keeps one
# call to about 2 s: verify-identities took 1.35-1.55 s at order 50 (0.5 s at
# 40, 6.1 s at 60), expand-sine 1.1 s at order 500 (9 s at 1000), mu 0.25 s
# at g_max 40.
MAX_VERIFY_ORDER = 50
MAX_SINE_ORDER = 500
MAX_MU_G_MAX = 40
# |g| and |c| of expand-sine and |c1_dot_beta| of a table.  At |g| = |c| = 10**6
# and order 500 expand-sine takes about 2.5 s and its longest coefficient has
# about 3000 digits, under CPython's 4300-digit string conversion limit.
MAX_ABS_G_C = 10**6
# Digits of the numerator or of the denominator of a table value, of a genus
# key and of a json integer; twice the longest value the benchmark uses.
# Checked on the string, before int() sees it: main lifts CPython's
# 4300-digit conversion cap, and int() of n digits takes time quadratic in n
# (8 s at 10**6 digits).
MAX_VALUE_DIGITS = 1000
# g_max of a table: the largest that `bench/run.py --baseline` sends.  With
# 13-digit values at c = 3 a transform took 0.45-0.56 s at g_max 40, 1.7-1.9 s
# at 60, 3.0 s at 70 and 5.0 s at 80; longer values cost more.
MAX_TABLE_G_MAX = 80
_LIMITS = {
    ("verify-identities", "order"): MAX_VERIFY_ORDER,
    ("expand-sine", "order"): MAX_SINE_ORDER,
    ("mu", "g_max"): MAX_MU_G_MAX,
}


class ParseError(ValueError):
    """Input file violates the table schema."""


class CheckFailed(Exception):
    """A requested check did not pass (exit status 1)."""


# used with fullmatch and ASCII digits: "$" would also match before a trailing
# newline and "\d" any Unicode digit, letting "1\n" or "1\u0662" alias "1" or "12"
_VALUE_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_GENUS_RE = re.compile(r"0|[1-9][0-9]*")
_KINDS = {k.value: k for k in Kind}


def parse_table_doc(doc) -> GenusTable:
    """Validate a parsed json document against the table schema."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a json object")
    expected = {"class", "kind", "g_max", "values"}
    if set(doc) != expected:
        raise ParseError(f"top-level keys must be exactly {sorted(expected)}, got {sorted(doc)}")
    cls = doc["class"]
    if not isinstance(cls, dict) or set(cls) != {"c1_dot_beta", "primitive"}:
        raise ParseError('"class" must be an object with keys c1_dot_beta and primitive')
    c = cls["c1_dot_beta"]
    if isinstance(c, bool) or not isinstance(c, int):
        raise ParseError("c1_dot_beta must be an integer")
    if abs(c) > MAX_ABS_G_C:
        raise ParseError(f"|c1_dot_beta| must be at most {MAX_ABS_G_C}, got {c}")
    primitive = cls["primitive"]
    if not isinstance(primitive, bool):
        raise ParseError("primitive must be a boolean")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f'kind must be one of {sorted(_KINDS)}, got {kind!r}')
    g_max = doc["g_max"]
    if isinstance(g_max, bool) or not isinstance(g_max, int) or g_max < 0:
        raise ParseError("g_max must be a nonnegative integer")
    if g_max > MAX_TABLE_G_MAX:
        raise ParseError(f"g_max must be at most {MAX_TABLE_G_MAX}, got {g_max}")
    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise ParseError('"values" must be an object mapping genus to rational strings')
    values = {}
    for key, val in raw_values.items():
        if not isinstance(key, str) or not _GENUS_RE.fullmatch(key):
            raise ParseError(f"genus key {key!r} is not a nonnegative integer string")
        if len(key) > MAX_VALUE_DIGITS:
            raise ParseError(f"genus key has more than {MAX_VALUE_DIGITS} digits")
        g = int(key)
        if g > g_max:
            raise ParseError(f"genus {g} exceeds g_max={g_max}")
        if not isinstance(val, str) or not _VALUE_RE.fullmatch(val):
            raise ParseError(f'value for genus {g} must be a "p/q" string, got {val!r}')
        if any(len(part) > MAX_VALUE_DIGITS for part in val.lstrip("-").split("/")):
            raise ParseError(f"value for genus {g} has a numerator or denominator of more "
                             f"than {MAX_VALUE_DIGITS} digits")
        try:
            values[g] = Fraction(val)
        except ZeroDivisionError:
            raise ParseError(f"value for genus {g} has zero denominator") from None
    return GenusTable(_KINDS[kind], c, primitive, values, g_max)


def table_to_doc(t: GenusTable) -> dict:
    """Canonical document form: fixed key order, dense values, exact strings."""
    return {
        "class": {"c1_dot_beta": t.c, "primitive": t.primitive},
        "kind": t.kind.value,
        "g_max": t.g_max,
        "values": {str(g): str(v) for g, v in sorted(t.dense().items())},
    }


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _unique_keys(pairs) -> dict:
    """json object hook: plain json.loads would keep the last of repeated keys."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {key!r} in a json object")
        doc[key] = value
    return doc


def _bounded_int(text: str) -> int:
    """json integer hook: refuse a literal too long to convert in bounded time."""
    if len(text.lstrip("-")) > MAX_VALUE_DIGITS:
        raise ParseError(f"json integer of more than {MAX_VALUE_DIGITS} digits")
    return int(text)


def load_table(path: str) -> GenusTable:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_bounded_int)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid json: {e}") from None
    except RecursionError:
        raise ParseError(f"{path}: json nesting too deep") from None
    return parse_table_doc(doc)


def _require_complete(t: GenusTable) -> None:
    missing = [g for g in range(t.g_max + 1) if g not in t.values]
    if missing:
        raise ParseError(
            f"inverse transform needs every genus 0..{t.g_max}; missing {missing}"
        )


def _table_text(t: GenusTable) -> str:
    lines = [
        f"kind: {t.kind.value}  c1.beta: {t.c}  primitive: "
        f"{'true' if t.primitive else 'false'}  g_max: {t.g_max}"
    ]
    lines += [f"g={g}: {v}" for g, v in sorted(t.dense().items())]
    return "\n".join(lines) + "\n"


def _emit(text: str, ns: argparse.Namespace) -> None:
    if ns.output:
        try:
            Path(ns.output).write_text(text)
        except OSError as e:
            raise ValueError(f"cannot write {ns.output}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _gv_report_doc(rep: GVReport) -> dict:
    return {
        "integral": rep.integral,
        "non_integral_genera": list(rep.non_integral_genera),
        "largest_nonzero_genus": rep.largest_nonzero_genus,
        "truncation_caveat": rep.truncation_caveat,
        "table": table_to_doc(rep.table),
    }


def _gv_report_text(rep: GVReport) -> str:
    lines = [_table_text(rep.table).rstrip("\n")]
    lines.append(f"integral: {'yes' if rep.integral else 'NO'}")
    if rep.non_integral_genera:
        lines.append(f"non-integral genera: {list(rep.non_integral_genera)}")
    lines.append(f"largest nonzero genus: {rep.largest_nonzero_genus}")
    lines.append(f"caveat: {rep.truncation_caveat}")
    return "\n".join(lines) + "\n"


def _handle_transform(ns: argparse.Namespace) -> int:
    table = load_table(ns.input)
    direction = ns.direction
    need = {"gw-to-ugw": Kind.GW, "ugw-to-gw": Kind.UGW,
            "gw-to-gv": Kind.GW, "gv-to-gw": Kind.GV}[direction]
    if table.kind is not need:
        raise ParseError(
            f"direction {direction} expects a {need.value} table, got {table.kind.value}"
        )
    if direction in ("gw-to-ugw", "gw-to-gv"):
        _require_complete(table)

    if direction == "gw-to-ugw":
        out = ugw_from_gw(table)
    elif direction == "ugw-to-gw":
        out = gw_from_ugw(table)
    elif direction == "gv-to-gw":
        out = gw_from_gv(table)
    else:
        rep = gv_from_gw(table)
        if ns.format == "json":
            _emit(dumps_canonical(table_to_doc(rep.table)), ns)
        else:
            _emit(_gv_report_text(rep), ns)
        if not rep.integral:
            raise CheckFailed(
                f"GV values non-integral at genera {list(rep.non_integral_genera)}"
            )
        return 0

    if ns.format == "json":
        _emit(dumps_canonical(table_to_doc(out)), ns)
    else:
        _emit(_table_text(out), ns)
    return 0


def _handle_check_integrality(ns: argparse.Namespace) -> int:
    table = load_table(ns.input)
    if table.kind is Kind.GW:
        _require_complete(table)
        rep = gv_from_gw(table)
    elif table.kind is Kind.UGW:
        gate_check(table.c, table.primitive)
        rep = report_on_gv(GenusTable(Kind.GV, table.c, table.primitive, table.values,
                                      table.g_max))
    else:
        rep = report_on_gv(table)
    if ns.format == "json":
        _emit(dumps_canonical(_gv_report_doc(rep)), ns)
    else:
        _emit(_gv_report_text(rep), ns)
    if not rep.integral:
        raise CheckFailed(f"non-integral at genera {list(rep.non_integral_genera)}")
    return 0


def _handle_verify_identities(ns: argparse.Namespace) -> int:
    order = ns.order
    rows = []

    raw = verify_raw_equals_closed(order=order)
    rows.append((raw.name, raw.passed, len(raw.cells),
                 None if raw.passed else f"{raw.first_failure.key}: {raw.first_failure.detail}"))
    eq = verify_eq_sum(order=order + 2)
    rows.append((eq.name, eq.passed, len(eq.cells),
                 None if eq.passed else f"{eq.first_failure.key}: {eq.first_failure.detail}"))
    expansion = i_function_expansion(2 * (order // 2) + 2)
    mu = verify_mu_consistency(order, expansion=expansion)
    rows.append(("vertex closed form vs local expansion", mu.passed, len(mu.checked),
                 None if mu.passed else f"genus {mu.first_failure}: {mu.detail}"))
    ratio = verify_i_ratio(order, expansion=expansion)
    rows.append(("expansion ratio vs marked-point constants", ratio.passed, len(ratio.checked),
                 None if ratio.passed else f"genus {ratio.first_failure}: {ratio.detail}"))

    all_passed = all(passed for _, passed, _, _ in rows)
    if ns.format == "json":
        doc = {
            "order": order,
            "passed": all_passed,
            "checks": [
                {"name": name, "passed": passed, "cells": cells, "first_failure": fail}
                for name, passed, cells, fail in rows
            ],
        }
        _emit(dumps_canonical(doc), ns)
    else:
        lines = [
            f"{name}: {'pass' if passed else 'FAIL'} ({cells} cells)"
            + (f" first failure {fail}" if fail else "")
            for name, passed, cells, fail in rows
        ]
        lines.append(f"overall: {'pass' if all_passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", ns)
    if not all_passed:
        raise CheckFailed("identity verification failed")
    return 0


def _mu0_text(g: int) -> str:
    mv = mu_g0(g)
    bits = []
    for coeff, sym in ((mv.a1, "z"), (mv.a_H, "H"), (mv.a_c1, "c1"), (mv.scalar, "")):
        if not coeff:
            continue
        term = str(coeff) if not sym else f"{coeff}*{sym}"
        bits.append(term)
    if not bits:
        return "0"
    out = bits[0]
    for term in bits[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _handle_mu(ns: argparse.Namespace) -> int:
    if ns.format == "json":
        doc = {"mu": {}}
        for g in range(1, ns.g_max + 1):
            mv = mu_g0(g)
            doc["mu"][str(g)] = {
                "z": str(mv.a1), "H": str(mv.a_H), "c1": str(mv.a_c1),
                "scalar": str(mv.scalar), "mu1": str(mu_g1(g)),
            }
        _emit(dumps_canonical(doc), ns)
    else:
        lines = [f"g={g}: mu0 = {_mu0_text(g)} ; mu1 = {mu_g1(g)}"
                 for g in range(1, ns.g_max + 1)]
        _emit("\n".join(lines) + "\n", ns)
    return 0


def _handle_expand_sine(ns: argparse.Namespace) -> int:
    order = ns.order
    series = sine_factor(ns.g, ns.c, order)
    if ns.format == "json":
        doc = {
            "g": ns.g,
            "c": ns.c,
            "exponent": 2 * ns.g - 2 + ns.c,
            "order": order,
            "valuation": series.valuation,
            "coefficients": {
                str(k): str(series.coefficient(k))
                for k in range(series.valuation, series.order)
            },
        }
        _emit(dumps_canonical(doc), ns)
    else:
        lines = [f"u^{k}: {series.coefficient(k)}"
                 for k in range(series.valuation, series.order)
                 if series.coefficient(k)]
        if not lines:
            lines = [f"no nonzero coefficients below u^{order}"]
        _emit("\n".join(lines) + "\n", ns)
    return 0


_HANDLERS = {
    "transform": _handle_transform,
    "check-integrality": _handle_check_integrality,
    "verify-identities": _handle_verify_identities,
    "mu": _handle_mu,
    "expand-sine": _handle_expand_sine,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinewall",
        description="Exact sine-power wall-crossing transforms for genus-indexed curve counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="output format (default text)")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write the report here instead of stdout")

    p = sub.add_parser("transform", help="convert a table between gw, ugw and gv")
    p.add_argument("--direction", required=True,
                   choices=("gw-to-ugw", "ugw-to-gw", "gw-to-gv", "gv-to-gw"))
    p.add_argument("--input", required=True, metavar="PATH", help="table json file")
    common(p)

    p = sub.add_parser("check-integrality", help="integrality report for a table")
    p.add_argument("--input", required=True, metavar="PATH", help="table json file")
    common(p)

    p = sub.add_parser("verify-identities", help="run the internal identity suites")
    p.add_argument("--order", type=int, default=10,
                   help="compare coefficients through u^order inclusive (default 10, "
                        f"at most {MAX_VERIFY_ORDER}); the reduction-sum grid runs "
                        "through u^(order+2)")
    common(p)

    p = sub.add_parser("mu", help="print the vertex values mu_{g,0}, mu_{g,1}")
    p.add_argument("--g-max", type=int, default=5, dest="g_max",
                   help=f"largest genus to print (default 5, at most {MAX_MU_G_MAX})")
    common(p)

    p = sub.add_parser("expand-sine", help="print coefficients of S^(2g-2+c)")
    p.add_argument("--g", type=int, required=True, help=f"at most {MAX_ABS_G_C} in absolute value")
    p.add_argument("--c", type=int, required=True, help=f"at most {MAX_ABS_G_C} in absolute value")
    p.add_argument("--order", type=int, default=10,
                   help=f"exclusive truncation order (default 10, at most {MAX_SINE_ORDER})")
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    # every accepted input bounds its output, so CPython's cap on int <-> str
    # conversion (absent before 3.11, 0 when off) is lifted for this call only
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        for name in ("order", "g_max"):
            value = getattr(ns, name, 0)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
            limit = _LIMITS.get((ns.command, name))
            if limit is not None and value > limit:
                raise ValueError(f"{name} must be at most {limit} for {ns.command}, got {value}")
        for name in ("g", "c"):
            value = getattr(ns, name, 0)
            if abs(value) > MAX_ABS_G_C:
                raise ValueError(f"|{name}| must be at most {MAX_ABS_G_C} for {ns.command}, "
                                 f"got {value}")
        return _HANDLERS[ns.command](ns)
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
