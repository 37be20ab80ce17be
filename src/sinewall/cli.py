"""Command-line surface: table transforms, integrality checks, identity suites.

Tables travel as json documents:

    {
      "class": { "c1_dot_beta": <integer>, "primitive": <boolean> },
      "kind": "gw" | "ugw" | "gv",
      "g_max": <integer>,
      "values": { "<genus>": "<p/q>" }
    }

Rationals are exact strings in lowest terms; genera absent from "values"
read as zero in a ugw or gv table, and a gw table, which every path inverts,
must hold every genus 0..g_max.  That rule, the kind each call reads and the
GV gate belong to the library calls, which refuse a table before any matrix
is built; this module owns the schema, the limits and the two output
formats.  Serialization is canonical (fixed key order, genus keys 0..g_max
in numeric order, two-space indent, trailing newline), so parse followed by
serialize is byte-identical on canonical input.

A repeated key in any json object is refused rather than letting the last
one win.  `verify-identities --order`, `expand-sine --order` and
`mu --g-max` are bounded by MAX_VERIFY_ORDER, MAX_SINE_ORDER and
MAX_MU_G_MAX, and `expand-sine --g/--c` and a table's c1_dot_beta by
MAX_ABS_G_C in absolute value, and a table's g_max by MAX_TABLE_G_MAX; a
larger value is refused before any computation.  The numerator and the
denominator of a table value, a genus key and a json integer are bounded
by MAX_VALUE_DIGITS digits, checked on the string before any integer
conversion, and the digits of all values of a table together by
MAX_TABLE_DIGITS, since a transform's cost grows with them as well as with
g_max.  An input file is read to at most MAX_INPUT_CHARS characters,
the canonical size of the largest table those limits admit; a longer one
is refused before json parsing.  Once the arguments are parsed, `main`
lifts CPython's cap on int <-> str conversion and restores it on return,
so the output of every accepted input prints.

Each call is usually a fresh process, so import time is paid per call.
The package `__init__` imports no module, so a call loads only the
sinewall modules this one imports, not `partitions`, which no call runs
(bench/tracer.py imports this module before it wraps, so it still wraps
every module a call runs).  Nor does a call import anything else it
does not run: no dataclasses (which pulls in inspect, ast and dis),
typing or pathlib, and no argparse (with gettext and locale) for
canonical argv, which `main` reads straight from the COMMANDS table.  argparse, built from
the same table by `build_parser`, reads every other argv: help, usage
errors, abbreviated options, "--option=value" and repeated options.  With
`python -S` (so site's own imports do not count) a fresh
`mu --g-max 4 --format json` took 18.4 ms against 28.5 ms with argparse,
typing and pathlib imported (medians of 20 pairs, 2-core VM, Python 3.11).
Nor does a call generate code: the result records are `_record.Record`
classes rather than `collections.namedtuple` ones, which `eval` a
`__new__` each, and genus keys, values and negative-number arguments are
matched with str methods, not with regular expressions, which are compiled
on first use.  The records and the key and value predicates took
`import sinewall.cli` plus one `main` call from 9.0 to 7.9 ms (medians of
240 alternating fresh processes over transform, check-integrality, mu and
expand-sine calls, same VM).

An empty --input or --output path is refused before any computation.

Each handler computes its report, renders it in the requested format and
returns it with the failure of a requested check (non-integral GV values,
an identity mismatch), or None.  `main` alone writes the report, to stdout
or --output, then prints "check failed: <failure>" to stderr for a failure.
Exit status: 0 success, 1 check failure, 2 input or usage error, an
unwritable --output included, which is reported before a check failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from .gv import GVReport, gv_from_gw, gw_from_gv, report_on_gv
from .hodge import i_function_expansion, mu_values, verify_i_ratio, verify_mu_consistency
from .wallcross import (
    GenusTable,
    Kind,
    gw_from_ugw,
    sine_factor,
    ugw_from_gw,
    verify_grids,
)

# Largest accepted values, each keeping one call to a few seconds.  The
# "Limits" table in README.md gives each limit's slowest admitted call, as
# exact argv, and its time.
MAX_VERIFY_ORDER = 110
MAX_SINE_ORDER = 500
MAX_MU_G_MAX = 40
# |g| and |c| of expand-sine and |c1_dot_beta| of a table.  At |g| = |c| = 10**6
# and order 500 the longest coefficient of expand-sine has about 3000 digits,
# under CPython's 4300-digit string conversion limit.
MAX_ABS_G_C = 10**6
# Digits of the numerator or of the denominator of a table value, of a genus
# key and of a json integer; twice the longest value the benchmark uses.
# Checked on the string, before int() sees it: main lifts CPython's
# 4300-digit conversion cap, and int() of n digits takes time quadratic in n
# (8 s at 10**6 digits).
MAX_VALUE_DIGITS = 1000
# Digits of all values of a table together, numerators and denominators.  It
# admits every table the benchmark sends: `bench/run.py --baseline` inverts the
# gw output of its g_max 80 table, 24 559 digits, and the workloads' tables
# carry at most 9 000.  A transform's cost grows with the digits as well as
# with g_max, most when they sit on unrelated denominators (README "Limits").
MAX_TABLE_DIGITS = 30_000
# g_max of a table: the largest that `bench/run.py --baseline` sends.
MAX_TABLE_G_MAX = 80
# Characters of an input file, read before any json parsing.  The canonical
# form of the largest table the limits above admit (g_max 80, c1_dot_beta
# -10**6, primitive false, every value "-<digits>/<digits>" and 30 000 digits
# in all) has 118 header characters, 81 value lines of 12 characters plus the
# genus key (10 of one digit, 71 of two) plus the value (its digits, "-" and
# "/"), less the last line's comma, and 6 closing ones:
# 118 + 81 * 12 + (10 + 142) + (30 000 + 162) - 1 + 6 = 31 409.
MAX_INPUT_CHARS = 31_409
_LIMITS = {
    ("verify-identities", "order"): MAX_VERIFY_ORDER,
    ("expand-sine", "order"): MAX_SINE_ORDER,
    ("mu", "g_max"): MAX_MU_G_MAX,
}


class ParseError(ValueError):
    """Input file violates the table schema."""


_KINDS = {k.value: k for k in Kind}


# Genus keys and values are matched whole and on ASCII digits only: str.isdigit
# alone also takes other scripts' digits, and a pattern ending in "$" a trailing
# newline, either letting "1\u0662" or "1\n" alias genus 12 or 1.  Plain str
# methods, so that parsing a table compiles no regular expression.
def _is_genus_key(key: str) -> bool:
    """Whether ``key`` is a nonnegative integer without a sign or leading zeros."""
    return key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")


def _is_value(val: str) -> bool:
    """Whether ``val`` reads "p" or "p/q": ASCII digits, one optional leading "-"."""
    num, slash, den = val.removeprefix("-").partition("/")
    return val.isascii() and num.isdigit() and (not slash or den.isdigit())


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
    values, digits = {}, 0
    for key, val in raw_values.items():
        if not isinstance(key, str) or not _is_genus_key(key):
            raise ParseError(f"genus key {key!r} is not a nonnegative integer string")
        if len(key) > MAX_VALUE_DIGITS:
            raise ParseError(f"genus key has more than {MAX_VALUE_DIGITS} digits")
        g = int(key)
        if g > g_max:
            raise ParseError(f"genus {g} exceeds g_max={g_max}")
        if not isinstance(val, str) or not _is_value(val):
            raise ParseError(f'value for genus {g} must be a "p/q" string, got {val!r}')
        if any(len(part) > MAX_VALUE_DIGITS for part in val.lstrip("-").split("/")):
            raise ParseError(f"value for genus {g} has a numerator or denominator of more "
                             f"than {MAX_VALUE_DIGITS} digits")
        digits += len(val) - val.startswith("-") - ("/" in val)
        try:
            values[g] = Fraction(val)
        except ZeroDivisionError:
            raise ParseError(f"value for genus {g} has zero denominator") from None
    if digits > MAX_TABLE_DIGITS:
        raise ParseError(f"values must have at most {MAX_TABLE_DIGITS} digits in all, got {digits}")
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
        with open(path, encoding="utf-8") as f:  # json's own encoding, whatever the locale
            text = f.read(MAX_INPUT_CHARS + 1)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text ({e.reason})") from None
    if len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"{path} has more than {MAX_INPUT_CHARS} characters")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_bounded_int)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid json: {e}") from None
    except RecursionError:
        raise ParseError(f"{path}: json nesting too deep") from None
    return parse_table_doc(doc)


def _table_text(t: GenusTable) -> str:
    lines = [
        f"kind: {t.kind.value}  c1.beta: {t.c}  primitive: "
        f"{'true' if t.primitive else 'false'}  g_max: {t.g_max}"
    ]
    lines += [f"g={g}: {v}" for g, v in sorted(t.dense().items())]
    return "\n".join(lines) + "\n"


def _emit(text: str, ns: SimpleNamespace) -> None:
    if ns.output is not None:
        try:
            with open(ns.output, "w") as f:
                f.write(text)
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


# --direction -> the library call it makes, which refuses a table of the wrong
# kind; `COMMANDS` reads its choices from here.  The call is looked up by name
# when it runs, so a wrapper bound to this module's name (bench/tracer.py
# rebinds every copy it finds) is the one called.
_DIRECTIONS = {"gw-to-ugw": "ugw_from_gw", "ugw-to-gw": "gw_from_ugw", "gw-to-gv": "gv_from_gw",
               "gv-to-gw": "gw_from_gv"}


def _handle_transform(ns: SimpleNamespace) -> tuple[str, str | None]:
    out = globals()[_DIRECTIONS[ns.direction]](load_table(ns.input))
    if isinstance(out, GVReport):
        text = (dumps_canonical(table_to_doc(out.table)) if ns.format == "json"
                else _gv_report_text(out))
        return text, None if out.integral else (
            f"GV values non-integral at genera {list(out.non_integral_genera)}")
    return (dumps_canonical(table_to_doc(out)) if ns.format == "json" else _table_text(out)), None


def _handle_check_integrality(ns: SimpleNamespace) -> tuple[str, str | None]:
    table = load_table(ns.input)
    rep = gv_from_gw(table) if table.kind is Kind.GW else report_on_gv(table)
    text = dumps_canonical(_gv_report_doc(rep)) if ns.format == "json" else _gv_report_text(rep)
    return text, None if rep.integral else (
        f"non-integral at genera {list(rep.non_integral_genera)}")


def _handle_verify_identities(ns: SimpleNamespace) -> tuple[str, str | None]:
    order = ns.order
    expansion = i_function_expansion(2 * (order // 2) + 2)
    reports = (*verify_grids(order), verify_mu_consistency(expansion), verify_i_ratio(expansion))
    all_passed = all(rep.passed for rep in reports)
    if ns.format == "json":
        checks = [{"name": rep.name, "passed": rep.passed, "cells": len(rep.cells),
                   "first_failure": rep.failure} for rep in reports]
        text = dumps_canonical({"order": order, "passed": all_passed, "checks": checks})
    else:
        text = "".join(f"{rep.summary()}\n" for rep in reports)
        text += f"overall: {'pass' if all_passed else 'FAIL'}\n"
    return text, None if all_passed else "identity verification failed"


def _mu0_text(mv) -> str:
    bits = [f"{coeff}*{sym}" for coeff, sym in ((mv.a1, "z"), (mv.a_H, "H"), (mv.a_c1, "c1"))
            if coeff]
    if not bits:
        return "0"
    out = bits[0]
    for term in bits[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _handle_mu(ns: SimpleNamespace) -> tuple[str, None]:
    # one build of every genus; mu_{g,1} is a_g, the z coefficient of mu_{g,0},
    # and mu_{g,0} has no constant term, whose key the document keeps at "0"
    mu = enumerate(mu_values(ns.g_max), 1)
    if ns.format == "json":
        doc = {"mu": {
            str(g): {"z": str(mv.a1), "H": str(mv.a_H), "c1": str(mv.a_c1),
                     "scalar": "0", "mu1": str(mv.a1)}
            for g, mv in mu}}
        return dumps_canonical(doc), None
    lines = [f"g={g}: mu0 = {_mu0_text(mv)} ; mu1 = {mv.a1}" for g, mv in mu]
    return "\n".join(lines) + "\n", None


def _handle_expand_sine(ns: SimpleNamespace) -> tuple[str, None]:
    order = ns.order
    series = sine_factor(ns.g, ns.c, order)
    if ns.format == "json":
        return dumps_canonical({
            "g": ns.g,
            "c": ns.c,
            "exponent": 2 * ns.g - 2 + ns.c,
            "order": order,
            "valuation": series.valuation,
            "coefficients": {
                str(k): str(series.coefficient(k))
                for k in range(series.valuation, series.order)
            },
        }), None
    lines = [f"u^{k}: {series.coefficient(k)}"
             for k in range(series.valuation, series.order)
             if series.coefficient(k)]
    if not lines:
        lines = [f"no nonzero coefficients below u^{order}"]
    return "\n".join(lines) + "\n", None


# The five subcommands, once: command -> (help, options, handler), each
# option's keywords as add_argument takes them; its dest is the flag without
# "--" and with "-" read as "_", as argparse derives it.  build_parser,
# _read_canonical and main all read this table, so they cannot drift apart.
_FORMAT = {"choices": ("json", "text"), "default": "text", "help": "output format (default text)"}
_OUTPUT = {"metavar": "PATH", "default": None, "help": "write the report here instead of stdout"}
_INPUT = {"required": True, "metavar": "PATH", "help": "table json file"}
COMMANDS = {
    "transform": ("convert a table between gw, ugw and gv", {
        "--direction": {"required": True, "choices": tuple(_DIRECTIONS)},
        "--input": _INPUT, "--format": _FORMAT, "--output": _OUTPUT,
    }, _handle_transform),
    "check-integrality": ("integrality report for a table", {
        "--input": _INPUT, "--format": _FORMAT, "--output": _OUTPUT,
    }, _handle_check_integrality),
    "verify-identities": ("run the internal identity suites", {
        "--order": {"type": int, "default": 10,
                    "help": "compare coefficients through u^order inclusive (default 10, "
                            f"at most {MAX_VERIFY_ORDER}); the reduction-sum grid runs "
                            "through u^(order+2)"},
        "--format": _FORMAT, "--output": _OUTPUT,
    }, _handle_verify_identities),
    "mu": ("print the vertex values mu_{g,0}, mu_{g,1}", {
        "--g-max": {"type": int, "default": 5,
                    "help": f"largest genus to print (default 5, at most {MAX_MU_G_MAX})"},
        "--format": _FORMAT, "--output": _OUTPUT,
    }, _handle_mu),
    "expand-sine": ("print coefficients of S^(2g-2+c)", {
        "--g": {"type": int, "required": True, "help": f"at most {MAX_ABS_G_C} in absolute value"},
        "--c": {"type": int, "required": True, "help": f"at most {MAX_ABS_G_C} in absolute value"},
        "--order": {"type": int, "default": 10,
                    "help": f"exclusive truncation order (default 10, at most {MAX_SINE_ORDER})"},
        "--format": _FORMAT, "--output": _OUTPUT,
    }, _handle_expand_sine),
}


def _is_negative_number(value: str) -> bool:
    r"""Whether ``value`` is "-" and ASCII digits, with at most one "." that digits follow.

    argparse reads such an argument as a value, not as an option.  Its own
    pattern, r"^-\d+$|^-\d*\.\d+$", also takes other scripts' digits and a
    trailing newline; those argv are left to argparse.
    """
    whole, dot, frac = value[1:].partition(".")
    return (value.startswith("-") and value.isascii() and (whole == "" or whole.isdigit())
            and (frac if dot else whole).isdigit())


def build_parser():
    """The argparse parser of the COMMANDS table: help, usage errors, every other argv."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sinewall",
        description="Exact sine-power wall-crossing transforms for genus-indexed curve counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build from canonical argv; None for any other argv.

    Canonical: the command, then exact `--option value` pairs, each option
    at most once, no value starting with "-" unless argparse reads it as a
    negative number, every required option given, every value of its type
    and among its choices.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][1]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv) or not given.keys() <= options.keys():
        return None
    ns = {"command": argv[0]}
    for flag, spec in options.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if spec.get("required"):
                return None
            ns[dest] = spec.get("default")
            continue
        value = given[flag]
        if value.startswith("-") and not _is_negative_number(value):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        ns[dest] = value
    return SimpleNamespace(**ns)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse (with gettext and locale) is imported only for argv that
    # the table reader leaves to it
    ns = _read_canonical(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
        for name in ("input", "output"):
            if getattr(ns, name, None) == "":
                raise ValueError(f"--{name} must name a file, got an empty path")
        text, failure = COMMANDS[ns.command][2](ns)
        _emit(text, ns)
        if failure is None:
            return 0
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
