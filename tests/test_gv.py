"""BPS extraction: class gate, integrality reporting, integer roundtrips."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sinewall.gv import (
    ClassNotCovered,
    gate_check,
    gv_from_gw,
    gw_from_gv,
    report_on_gv,
)
from sinewall.wallcross import GenusTable, Kind


def primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


# ---------------------------------------------------------------- gate


def test_gate_accepts_positive_pairing():
    gate_check(3, False)
    gate_check(1, True)


def test_gate_accepts_primitive_boundary_class():
    gate_check(0, True)


def test_gate_rejects_imprimitive_boundary_class():
    with pytest.raises(ClassNotCovered):
        gate_check(0, False)


def test_gate_rejects_negative_pairing():
    with pytest.raises(ClassNotCovered):
        gate_check(-1, True)
    with pytest.raises(ClassNotCovered):
        gate_check(-5, False)


# ---------------------------------------------------------------- line class


@pytest.mark.parametrize("c, primitive, named", [
    (0.0, 1, "c must be an int, got 0.0"),
    (0.5, "no", "c must be an int, got 0.5"),
    (True, False, "c must be an int, got True"),
    (F(3), True, "c must be an int, got Fraction(3, 1)"),
    (0, 1, "primitive must be a bool, got 1"),
    (2, "no", "primitive must be a bool, got 'no'"),
    (3, None, "primitive must be a bool, got None"),
])
def test_gate_refuses_a_c_or_primitive_of_the_wrong_type(c, primitive, named):
    # as GenusTable does: a float c or a truthy non-bool would otherwise pass
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        gate_check(c, primitive)


def test_line_class_forward():
    gv = GenusTable(Kind.GV, 4, True, {0: 1}, 3)
    gw = gw_from_gv(gv)
    assert gw.kind is Kind.GW
    assert gw.dense() == {0: F(1), 1: F(-1, 12), 2: F(1, 360), 3: F(-1, 20160)}


def test_line_class_roundtrip_report():
    gv = GenusTable(Kind.GV, 4, True, {0: 1}, 3)
    rep = gv_from_gw(gw_from_gv(gv))
    assert rep.integral
    assert rep.non_integral_genera == ()
    assert rep.largest_nonzero_genus == 0
    assert rep.table.kind is Kind.GV
    assert rep.table.dense() == gv.dense()


def test_genus_one_seed():
    gv = GenusTable(Kind.GV, 2, False, {1: 1}, 2)
    gw = gw_from_gv(gv)
    assert gw.value(1) == 1
    assert gw.value(2) == F(-1, 12)


# ---------------------------------------------------------------- gating of transforms


def test_transforms_gate_the_class():
    bad = GenusTable(Kind.GV, 0, False, {0: 1}, 1)
    with pytest.raises(ClassNotCovered):
        gw_from_gv(bad)
    with pytest.raises(ClassNotCovered):
        gv_from_gw(GenusTable(Kind.GW, -2, True, {0: 1, 1: 0}, 1))


def test_report_on_gv_does_not_gate():
    t = GenusTable(Kind.GV, -3, False, {0: F(1, 2), 1: 3}, 2)
    rep = report_on_gv(t)
    assert not rep.integral
    assert rep.non_integral_genera == (0,)
    assert rep.largest_nonzero_genus == 1


def test_kind_mismatches_rejected():
    gw = GenusTable(Kind.GW, 1, True, {0: 1}, 0)
    gv = GenusTable(Kind.GV, 1, True, {0: 1}, 0)
    with pytest.raises(ValueError):
        gw_from_gv(gw)
    with pytest.raises(ValueError):
        gv_from_gw(gv)
    with pytest.raises(ValueError):
        report_on_gv(gw)


# ---------------------------------------------------------------- reporting


def test_perturbed_gw_is_flagged_non_integral():
    gw = GenusTable(
        Kind.GW, 4, True,
        {0: 1, 1: F(-1, 12), 2: F(1, 360) + F(1, 1000)}, 2,
    )
    rep = gv_from_gw(gw)
    assert not rep.integral
    assert rep.non_integral_genera == (2,)


def test_zero_table_report():
    rep = report_on_gv(GenusTable(Kind.GV, 1, True, {}, 2))
    assert rep.integral
    assert rep.largest_nonzero_genus is None


def test_truncation_caveat_names_the_bound():
    rep = report_on_gv(GenusTable(Kind.GV, 1, True, {0: 1}, 5))
    assert "g_max=5" in rep.truncation_caveat


# ---------------------------------------------------------------- properties


@st.composite
def integer_gv_tables(draw):
    g_max = draw(st.integers(min_value=0, max_value=4))
    c = draw(st.integers(min_value=0, max_value=6))
    primitive = True if c == 0 else draw(st.booleans())
    values = {g: draw(st.integers(min_value=-9, max_value=9)) for g in range(g_max + 1)}
    return GenusTable(Kind.GV, c, primitive, values, g_max)


@given(integer_gv_tables())
def test_integer_roundtrip(gv):
    rep = gv_from_gw(gw_from_gv(gv))
    assert rep.integral
    assert rep.table.dense() == gv.dense()


@given(integer_gv_tables())
def test_forward_denominators_stay_smooth(gv):
    # every denominator divides a product of factorials no larger than
    # (2 g_max + 1)!, so its prime factors are bounded by 2 g_max + 1
    gw = gw_from_gv(gv)
    allowed = primes_up_to(2 * gv.g_max + 1)
    for v in gw.dense().values():
        d = v.denominator
        for p in allowed:
            while d % p == 0:
                d //= p
        assert d == 1
