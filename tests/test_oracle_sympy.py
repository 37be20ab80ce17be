"""An oracle that shares no code with `sinewall.series`: sympy's own expansion.

sympy expands (sin(u/2)/(u/2))^k symbolically; `sine_factor` and two
columns of the `gw_from_ugw` matrix must agree with it exactly.  The
benchmark's oracle uses the same power recurrence as `series.pow_int`, so
this is the one check that shares neither code nor algorithm with it.
`log` and `exp` of S, which run their recurrences in x = u^2, are checked
the same way.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

sp = pytest.importorskip("sympy")

from sinewall.series import exp, log, sinc_half
from sinewall.wallcross import GenusTable, Kind, gw_from_ugw, sine_factor

from series_scaling import scaled

ORDER = 14


@lru_cache(maxsize=None)
def sympy_sine_power(k):
    """[u^j] (sin(u/2)/(u/2))^k for j < ORDER, as Fractions."""
    u = sp.Symbol("u")
    expansion = sp.series((sp.sin(u / 2) / (u / 2)) ** k, u, 0, ORDER).removeO()
    return [F(str(expansion.coeff(u, j))) for j in range(ORDER)]


@pytest.mark.parametrize("k", [-4, -1, 1, 3, 6, 11])
def test_sine_factor_matches_sympy(k):
    # S^k is S^(2g - 2 + c) with g = 0, c = k + 2
    got = sine_factor(0, k + 2, ORDER)
    assert [got.coefficient(j) for j in range(ORDER)] == sympy_sine_power(k)


@pytest.mark.parametrize("g0", [0, 1])
def test_transform_column_matches_sympy(g0):
    # a unit uGW table at genus g0 maps to the column GW_h = [u^(2(h - g0))] S^(2 g0 + 1)
    g_max = 6  # 2 (g_max - g0) < ORDER
    gw = gw_from_ugw(GenusTable(Kind.UGW, 3, True, {g0: 1}, g_max))
    want = sympy_sine_power(2 * g0 + 1)
    assert [gw.value(h) for h in range(g_max + 1)] == (
        [F(0)] * g0 + [want[2 * (h - g0)] for h in range(g0, g_max + 1)])


@lru_cache(maxsize=None)
def sympy_coefficients(expr, order):
    """[u^j] of a sympy expression in u for j < order, as Fractions."""
    u = sp.Symbol("u")
    expansion = sp.series(expr, u, 0, order).removeO()
    return [F(str(expansion.coeff(u, j))) for j in range(order)]


def sympy_s():
    u = sp.Symbol("u")
    return sp.sin(u / 2) / (u / 2)


def test_log_sinc_half_matches_sympy():
    order = 22  # through u^21
    got = log(sinc_half(order))
    assert [got.coefficient(j) for j in range(order)] == sympy_coefficients(
        sp.log(sympy_s()), order)


@pytest.mark.parametrize("m", [-5, 3])
def test_exp_of_multiple_of_log_sinc_half_matches_sympy(m):
    # exp(m log S) = S^m
    order = 22  # through u^21
    got = exp(scaled(log(sinc_half(order)), m))
    assert [got.coefficient(j) for j in range(order)] == sympy_coefficients(
        sympy_s() ** m, order)


@pytest.mark.parametrize("k", [-7, 9])
def test_sine_factor_through_u31_matches_sympy(k):
    order = 32  # through u^31
    got = sine_factor(0, k + 2, order)
    assert [got.coefficient(j) for j in range(order)] == sympy_coefficients(
        sympy_s() ** k, order)
