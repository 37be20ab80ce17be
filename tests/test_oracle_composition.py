"""An oracle for the inverse transform that shares no code with `sinewall.series`.

With x = u^2 and y = x S^2 = (2 sin(u/2))^2 the forward transform reads
sum_h GW_h x^h = S^(c-2) U(y), where U(y) = sum_g uGW_g y^g is the
Gopakumar-Vafa form sum_g n_g (2 sin(u/2))^(2g-2) up to the factor y.  The
inverse of y(x) under composition is Lehmer's series for arcsin^2,

    x(y) = (2 arcsin(sqrt(y)/2))^2 = 2 sum_{n >= 1} y^n / (n^2 C(2n, n)),

(D. H. Lehmer, "Interesting series involving the central binomial
coefficient", Amer. Math. Monthly 92, 1985), so with S^2 = y/x

    U(y) = (x(y)/y)^(c/2 - 1) * GW(x(y)).

The series below are plain lists of Fractions with their own product.  The
half-integer power takes a square root by solving Q^2 = R coefficient by
coefficient and then multiplies or inverts; none of it is the power
recurrence `series.pow_int` uses.
"""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from sinewall.wallcross import GenusTable, Kind, ugw_from_gw


def product(a, b, n):
    """The first n coefficients of a * b."""
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n)]


def reciprocal(a, n):
    """The first n coefficients of 1 / a, for a[0] != 0, by solving a * b = 1."""
    b = [F(1) / a[0]]
    for k in range(1, n):
        b.append(-sum(a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1)) / a[0])
    return b


def square_root(a, n):
    """The first n coefficients of sqrt(a), for a[0] == 1, by solving q * q = a."""
    q = [F(1)]
    for k in range(1, n):
        q.append((a[k] - sum(q[i] * q[k - i] for i in range(1, k))) / 2)
    return q


def power_of_sqrt(a, e, n):
    """sqrt(a)^e for an integer e, by repeated products."""
    base = square_root(a, n)
    if e < 0:
        base, e = reciprocal(base, n), -e
    out = [F(1)] + [F(0)] * (n - 1)
    for _ in range(e):
        out = product(out, base, n)
    return out


def ugw_by_composition(gw, c, g_max):
    """uGW_0..uGW_g_max from GW_0..GW_g_max through U(y) = (x/y)^(c/2-1) GW(x(y))."""
    n = g_max + 1
    x = [F(0)] + [F(2, k * k * comb(2 * k, k)) for k in range(1, n + 1)]
    x_over_y = x[1:]
    composed = [F(0)] * n
    x_pow = [F(1)] + [F(0)] * (n - 1)
    for h in range(n):
        composed = [s + gw[h] * t for s, t in zip(composed, x_pow)]
        x_pow = product(x_pow, x, n)
    return product(power_of_sqrt(x_over_y, c - 2, n), composed, n)


def test_lehmer_series_inverts_the_sine_square():
    # y(x) = x S(u)^2 = 4 sin^2(u/2) = 2 - 2 cos(u) = 2 sum_{m >= 1} (-1)^(m+1) x^m / (2m)!
    n = 12
    y = [F(0)] + [F(2 * (-1) ** (m + 1), factorial(2 * m)) for m in range(1, n)]
    x = [F(0)] + [F(2, k * k * comb(2 * k, k)) for k in range(1, n)]
    composed = [F(0)] * n
    y_pow = [F(1)] + [F(0)] * (n - 1)
    for k in range(n):
        composed = [s + x[k] * t for s, t in zip(composed, y_pow)]
        y_pow = product(y_pow, y, n)
    assert composed == [F(0), F(1)] + [F(0)] * (n - 2)


@pytest.mark.parametrize("c", range(-3, 9))
def test_inverse_transform_matches_composition(c):
    rng = random.Random(9100 + c)
    for g_max in range(16):
        gw = [F(0) if rng.random() < 0.2 else F(rng.randint(-40, 40), rng.randint(1, 30))
              for _ in range(g_max + 1)]
        table = GenusTable(Kind.GW, c, rng.random() < 0.5, dict(enumerate(gw)), g_max)
        got = ugw_from_gw(table).dense()
        assert [got[g] for g in range(g_max + 1)] == ugw_by_composition(gw, c, g_max)
