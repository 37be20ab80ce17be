r"""GV extraction: identify the inverted table with integer curve counts.

For a class pairing positively with c1(X), or pairing to zero while
primitive, the uGW table obtained by inverting the sine-power transform
IS the table of GV invariants.  Outside those hypotheses the
identification is not guaranteed and the engine refuses (ClassNotCovered)
rather than extrapolate.

Integrality of the result is checked and reported.  Finiteness (vanishing
in all large genera) is only ever REPORTED: a table truncated at g_max
cannot witness vanishing beyond it, so `GVReport` carries the largest
nonzero genus seen together with an explicit truncation caveat.
"""

from __future__ import annotations

from ._record import Record
from .series import _int_arg
from .wallcross import GenusTable, Kind, gw_from_ugw, ugw_from_gw

__all__ = ["ClassNotCovered", "GVReport", "gate_check", "gv_from_gw", "gw_from_gv", "report_on_gv"]


class ClassNotCovered(ValueError):
    """The Fano / primitive-CY hypothesis fails; the identification is unproven."""


class GVReport(Record, fields="table integral non_integral_genera largest_nonzero_genus "
                              "truncation_caveat"):
    """A GV table plus its integrality and finiteness observations."""

    __slots__ = ()


def gate_check(c: int, primitive: bool) -> None:
    """Raise ClassNotCovered unless c > 0, or c = 0 with a primitive class.

    ``c`` must be an int and ``primitive`` a bool, as in `GenusTable`:
    anything else is refused with TypeError, since a float c or a truthy
    non-bool would otherwise pass the gate.
    """
    _int_arg("c", c)
    if not isinstance(primitive, bool):
        raise TypeError(f"primitive must be a bool, got {primitive!r}")
    if c > 0:
        return
    if c == 0 and primitive:
        return
    raise ClassNotCovered(
        f"class with c1 pairing {c} and primitive={primitive} is neither Fano "
        "(c > 0) nor primitive with c = 0; the GV identification does not apply"
    )


def _report(table: GenusTable) -> GVReport:
    bad = tuple(g for g in range(table.g_max + 1) if table.value(g).denominator != 1)
    nonzero = [g for g in range(table.g_max + 1) if table.value(g)]
    return GVReport(
        table=table,
        integral=not bad,
        non_integral_genera=bad,
        largest_nonzero_genus=max(nonzero) if nonzero else None,
        truncation_caveat=(
            f"genera above g_max={table.g_max} are unknown; "
            "vanishing beyond that bound is not verified"
        ),
    )


def gv_from_gw(t: GenusTable) -> GVReport:
    """Invert the transform and report the candidate GV table.

    Requires kind gw, the coverage gate (c > 0, or c = 0 and primitive;
    ClassNotCovered otherwise) and every genus 0..g_max, which
    `ugw_from_gw` checks (MissingGenus otherwise), in that order and before
    any matrix is built.
    """
    if t.kind is not Kind.GW:
        raise ValueError(f"gv_from_gw expects a gw table, got {t.kind.value}")
    gate_check(t.c, t.primitive)
    ugw = ugw_from_gw(t)
    return _report(GenusTable(Kind.GV, ugw.c, ugw.primitive, ugw.values, ugw.g_max))


def report_on_gv(t: GenusTable) -> GVReport:
    """Integrality / finiteness report for a gv table, or for a ugw table read as one.

    A gv table is reported as it stands: its values are already BPS
    numbers, so no gate applies.  A ugw table is the GV table only under the
    coverage gate, so it must pass `gate_check` (ClassNotCovered otherwise)
    and is reported relabelled as gv.  Absent genera read as zero.
    """
    if t.kind is Kind.UGW:
        gate_check(t.c, t.primitive)
    elif t.kind is not Kind.GV:
        raise ValueError(f"report_on_gv expects a gv or ugw table, got {t.kind.value}")
    return _report(GenusTable(Kind.GV, t.c, t.primitive, t.dense(), t.g_max))


def gw_from_gv(t: GenusTable) -> GenusTable:
    """Forward transform from a GV table, under the same coverage gate."""
    if t.kind is not Kind.GV:
        raise ValueError(f"gw_from_gv expects a gv table, got {t.kind.value}")
    gate_check(t.c, t.primitive)
    return gw_from_ugw(GenusTable(Kind.UGW, t.c, t.primitive, t.values, t.g_max))
