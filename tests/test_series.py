"""Truncated-series core: frozen values, window semantics, ring laws.

Frozen expansions are checked against oracles that do not share code with
the library: the cosine identity 2 - 2cos u = u^2 S(u)^2, direct factorial
sums for sin(x)/x, and a hand-rolled triangular solve for inverses.
"""

import random
import re
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import given, strategies as st

from sinewall.series import (
    ConstantTermNotOne,
    NonzeroConstantTerm,
    USeries,
    ZeroSeries,
    convolve,
    even_row,
    even_series,
    exp,
    inv,
    log,
    numerators,
    pow_int,
    sinc_half,
)

from series_scaling import scaled


def sinc_oracle(order):
    """sin(x)/x at x = u/2, straight from the factorial definition."""
    coeffs = []
    for k in range(order):
        if k % 2:
            coeffs.append(F(0))
        else:
            m = k // 2
            coeffs.append(F((-1) ** m, 4**m * factorial(k + 1)))
    return USeries(0, coeffs)


def cosine_square_oracle(order):
    """S^2 via 2 - 2cos u = u^2 S(u)^2; coefficient of u^{2m} is 2(-1)^m/(2m+2)!."""
    coeffs = []
    for k in range(order):
        if k % 2:
            coeffs.append(F(0))
        else:
            m = k // 2
            coeffs.append(F(2 * (-1) ** m, factorial(2 * m + 2)))
    return USeries(0, coeffs)


def convolve_oracle(f, g):
    """Dict-based Cauchy product, independent of USeries.__mul__."""
    out = {}
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            k = f.valuation + i + g.valuation + j
            out[k] = out.get(k, F(0)) + a * b
    return out


# ---------------------------------------------------------------- frozen values


def test_sinc_half_frozen_through_u6():
    s = sinc_half(8)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == F(-1, 24)
    assert s.coefficient(4) == F(1, 1920)
    assert s.coefficient(6) == F(-1, 322560)
    assert all(s.coefficient(k) == 0 for k in (1, 3, 5, 7))


def test_sinc_half_matches_factorial_oracle():
    assert sinc_half(14) == sinc_oracle(14)


def test_sinc_half_order_window():
    s6 = sinc_half(6)
    assert s6.order == 6
    with pytest.raises(ValueError):
        s6.coefficient(6)
    assert sinc_half(8).coeffs[:6] == s6.coeffs


def test_sinc_half_degenerate_orders():
    assert sinc_half(0) == USeries.zero(0)
    assert sinc_half(-3) == USeries.zero(-3)
    assert sinc_half(1) == USeries.one(1)


def test_square_matches_cosine_identity():
    s = sinc_half(12)
    assert s * s == cosine_square_oracle(12)
    assert pow_int(s, 2) == cosine_square_oracle(12)


def test_square_frozen_through_u6():
    sq = pow_int(sinc_half(8), 2)
    assert sq == USeries(0, [F(1), 0, F(-1, 12), 0, F(1, 360), 0, F(-1, 20160), 0])


def test_inverse_frozen():
    # inv(1 - u^2/24 + u^4/1920) = 1 + u^2/24 + 7u^4/5760
    got = inv(sinc_half(6))
    assert got == USeries(0, [F(1), 0, F(1, 24), 0, F(7, 5760), 0])


def test_inverse_matches_triangular_solve():
    f = sinc_half(12)
    # solve sum_j f_j b_{k-j} = [k == 0] by hand
    b = [F(1)]
    for k in range(1, 12):
        acc = F(0)
        for j in range(1, k + 1):
            acc += f.coefficient(j) * b[k - j]
        b.append(-acc)
    assert inv(f) == USeries(0, b)


def test_inverse_fourth_power_frozen():
    got = pow_int(sinc_half(8), -4)
    assert got.coeffs[:6] == (F(1), 0, F(1, 6), 0, F(11, 720), 0)
    assert got.coefficient(6) == F(31, 30240)
    # and it really is the reciprocal of S^4
    assert (got * pow_int(sinc_half(8), 4)).agrees(USeries.one(8))


def test_log_frozen():
    ls = log(sinc_half(8))
    assert ls == USeries(2, [F(-1, 24), 0, F(-1, 2880), 0, F(-1, 181440), 0])


def test_exp_log_roundtrip_on_sine():
    s = sinc_half(12)
    assert exp(log(s)) == s


def test_exp_frozen():
    got = exp(USeries(2, [F(-1, 24), 0, F(-1, 2880), 0]))
    assert got == USeries(0, [F(1), 0, F(-1, 24), 0, F(1, 1920), 0])


# ---------------------------------------------------------------- constructors


def test_constructor_normalizes_leading_zeros():
    f = USeries(0, [0, 0, F(3), 0])
    assert f.valuation == 2
    assert f.order == 4
    assert f.coeffs == (F(3), 0)


def test_constructor_canonical_zero():
    f = USeries(3, [0, 0])
    assert f.is_zero()
    assert f.valuation == 5
    assert f.order == 5
    assert f == USeries.zero(5)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        USeries(0, [0.5])


def test_constant_and_monomial():
    assert USeries.one(3) == USeries(0, [F(1), 0, 0])
    assert USeries.one(0) == USeries.zero(0)
    assert USeries.one(-2) == USeries.zero(-2)
    m = USeries(3, [F(2), 0, 0])
    assert m.coefficient(3) == 2
    assert m.valuation == 3 and m.order == 6


def test_immutability():
    f = USeries.one(4)
    with pytest.raises(AttributeError):
        f.order = 10


def test_hash_disabled():
    with pytest.raises(TypeError):
        hash(USeries.one(4))


# ---------------------------------------------------------------- windows


def test_coefficient_window():
    f = USeries(2, [F(5), F(6)])
    assert f.coefficient(-1) == 0
    assert f.coefficient(1) == 0
    assert f.coefficient(2) == 5
    assert f.coefficient(3) == 6
    with pytest.raises(ValueError):
        f.coefficient(4)


def test_agrees_on_joint_window():
    f = USeries(0, [F(1), F(2), F(3)])
    g = USeries(0, [F(1), F(2)])
    h = USeries(0, [F(1), F(9)])
    assert f.agrees(g)
    assert not f.agrees(h)
    # disjoint knowledge windows agree vacuously
    assert USeries.zero(0).agrees(f)


def test_add_order_is_min():
    f = USeries(0, [F(1), F(2), F(3)])
    g = USeries(0, [F(4), F(5)])
    assert (f + g).order == 2
    assert (f + g) == USeries(0, [F(5), F(7)])


def test_mul_order_window():
    # order of f*g: min(f.order + g.valuation, g.order + f.valuation)
    f = USeries(1, [F(1), F(1)])  # u + u^2 + O(u^3)
    g = USeries(0, [F(1), F(1), F(1), F(1)])  # 1 + ... + O(u^4)
    fg = f * g
    assert fg.order == min(f.order + g.valuation, g.order + f.valuation) == 3
    assert fg == USeries(1, [F(1), F(2)])


def test_sub_cancellation_keeps_order():
    f = USeries(0, [F(1), F(2), F(3)])
    d = f + scaled(f, -1)
    assert d.is_zero()
    assert d.order == 3


def test_repr_mentions_order():
    assert "O(u^6)" in repr(sinc_half(6))
    assert repr(USeries.zero(3)) == "O(u^3)"


# ---------------------------------------------------------------- errors


def test_inv_of_zero_raises():
    with pytest.raises(ZeroSeries):
        inv(USeries.zero(5))


def test_exp_requires_positive_valuation():
    with pytest.raises(NonzeroConstantTerm):
        exp(USeries.one(5))
    with pytest.raises(NonzeroConstantTerm):
        exp(USeries(-1, [F(1), 0, 0]))


def test_log_requires_unit_constant_term():
    with pytest.raises(ConstantTermNotOne):
        log(USeries(0, [F(2), 0, 0, 0, 0]))
    with pytest.raises(ConstantTermNotOne):
        log(USeries.zero(5))
    with pytest.raises(ConstantTermNotOne):
        log(USeries(1, [F(1), 0]))


def test_coefficients_must_be_rational():
    assert USeries(0, [3]).coefficient(0) == F(3)
    with pytest.raises(TypeError):
        USeries(0, ["3"])
    with pytest.raises(TypeError):
        USeries(0, [0.5])
    with pytest.raises(TypeError):
        USeries(0, [F(1)]) * 0.5
    with pytest.raises(TypeError):
        0.5 * USeries(0, [F(1)])


# ---------------------------------------------------------------- property suites

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def useries(draw, min_valuation=-3, max_valuation=3, max_len=6):
    valuation = draw(st.integers(min_value=min_valuation, max_value=max_valuation))
    coeffs = draw(st.lists(small_fraction, min_size=0, max_size=max_len))
    return USeries(valuation, coeffs)


@st.composite
def positive_valuation_series(draw):
    valuation = draw(st.integers(min_value=1, max_value=3))
    coeffs = draw(st.lists(small_fraction, min_size=0, max_size=5))
    return USeries(valuation, coeffs)


@st.composite
def unit_series(draw):
    # constant term exactly 1
    coeffs = draw(st.lists(small_fraction, min_size=0, max_size=5))
    return USeries(0, [F(1)] + coeffs)


@st.composite
def invertible_series(draw):
    valuation = draw(st.integers(min_value=-2, max_value=2))
    lead = draw(small_fraction.filter(bool))
    coeffs = draw(st.lists(small_fraction, min_size=0, max_size=5))
    return USeries(valuation, [lead] + coeffs)


@given(useries(), useries())
def test_add_commutes(f, g):
    assert f + g == g + f


@given(useries(), useries(), useries())
def test_add_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(useries(), useries())
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(useries(), useries(), useries())
def test_mul_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(useries(), useries(), useries())
def test_mul_distributes_on_joint_window(f, g, h):
    # cancellation inside g + h can raise its valuation, so the two routes
    # may carry different truncation windows; compare where both are known
    assert (f * (g + h)).agrees(f * g + f * h)


@given(useries())
def test_additive_identity_and_inverse(f):
    zero = USeries.zero(f.order)
    assert f + zero == f
    assert (f + scaled(f, -1)).is_zero()
    assert scaled(scaled(f, -1), -1) == f


@given(useries())
def test_one_is_multiplicative_identity(f):
    big = USeries.one(max(f.order - f.valuation, 1))
    assert f * big == f


@given(useries(), useries())
def test_product_against_convolution_oracle(f, g):
    got = f * g
    table = convolve_oracle(f, g)
    for k in range(got.valuation, got.order):
        assert got.coefficient(k) == table.get(k, F(0))


SHARED_DEN = 2**7 * 3**4 * 5**3 * 7**2  # times up to 15000 stays below 10^12
LARGE_PRIMES = (999999999989, 999999999961, 1000000007, 998244353)


def random_rational(rng):
    """Zero about a third of the time; else a denominator up to 10^12 that shares
    factors with the others, is a large prime, or is drawn at random."""
    if rng.random() < 0.3:
        return F(0)
    kind = rng.randrange(3)
    if kind == 0:
        den = SHARED_DEN * rng.randint(1, 15000)
    elif kind == 1:
        den = rng.choice(LARGE_PRIMES)
    else:
        den = rng.randint(1, 10**12)
    return F(rng.randint(-10**15, 10**15), den)


def random_series_data(rng):
    """(valuation, order, dense coefficients from the valuation); the zero series too."""
    valuation = rng.randint(-3, 3)
    length = rng.choice((0, rng.randint(0, 20)))
    coeffs = [random_rational(rng) for _ in range(length)]
    if rng.random() < 0.1:
        coeffs = [F(0)] * length
    return valuation, valuation + length, coeffs


def schoolbook_product(f, g):
    """(valuation, coeffs, order) of f * g in canonical form, from plain Fraction lists.

    The product knows min(order(f) + val(g), order(g) + val(f)), with val the
    exponent of the first nonzero coefficient (the order, for the zero series).
    """
    fv, fo, fc = f
    gv, go, gc = g
    fv = next((fv + i for i, a in enumerate(fc) if a), fo)
    gv = next((gv + j for j, b in enumerate(gc) if b), go)
    fc, gc = fc[fv - f[0]:], gc[gv - g[0]:]
    order = min(fo + gv, go + fv)
    dense = {}
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            k = fv + gv + i + j
            if k < order:
                dense[k] = dense.get(k, F(0)) + a * b
    nonzero = [k for k in sorted(dense) if dense[k] != 0]
    if not nonzero:
        return order, (), order
    lo = nonzero[0]
    return lo, tuple(dense.get(k, F(0)) for k in range(lo, order)), order


def test_product_against_schoolbook_on_long_series_with_large_denominators():
    rng = random.Random(9)
    for _ in range(300):
        f, g = random_series_data(rng), random_series_data(rng)
        got = USeries(f[0], f[2]) * USeries(g[0], g[2])
        assert (got.valuation, got.coeffs, got.order) == schoolbook_product(f, g)


def test_convolve_and_numerators_against_schoolbook():
    rng = random.Random(10)
    for _ in range(200):
        a = [rng.choice((0, rng.randint(-10**20, 10**20))) for _ in range(rng.randint(0, 20))]
        b = [rng.choice((0, rng.randint(-10**20, 10**20))) for _ in range(rng.randint(0, 20))]
        n = rng.randint(0, 25)
        want = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                for k in range(n)]
        assert convolve(a, b, n) == want
        fs = [random_rational(rng) for _ in range(rng.randint(0, 20))]
        ints, den = numerators(fs)
        assert [F(x, den) for x in ints] == fs
        least = 1
        for f in fs:
            least = least * f.denominator // gcd(least, f.denominator)
        assert den == least


@given(st.lists(small_fraction, max_size=8))
def test_numerators_are_lowest_terms(fs):
    # _ladder's seed and _sine_powers' rows rely on this
    ints, den = numerators(fs)
    assert den > 0 and gcd(den, *ints) == 1
    assert [F(x, den) for x in ints] == fs


@given(useries(min_valuation=0, max_valuation=4, max_len=9), st.data())
def test_even_row_is_lowest_terms_and_spreads_back(f, data):
    # a row reads [u^0], [u^2], ... of f, at any valuation, in lowest terms over
    # a positive den; even_series gives back the even part of f through u^(2 size - 1)
    size = data.draw(st.integers(min_value=0, max_value=(f.order + 1) // 2))
    ints, den = even_row(f, size)
    assert den > 0 and gcd(den, *ints) == 1
    assert [F(x, den) for x in ints] == [f.coefficient(2 * i) for i in range(size)]
    back = even_series(ints, den, 2 * size)
    assert back.order == 2 * size
    assert all(back.coefficient(k) == (0 if k % 2 else f.coefficient(k)) for k in range(2 * size))


def test_even_row_refuses_an_unknown_power():
    f = USeries(-2, [F(1), F(0), F(3)])  # u^-2 + 3, known below u^1
    with pytest.raises(ValueError, match=re.escape("a series from u^-2 below u^1")):
        even_row(f, 1)
    with pytest.raises(ValueError, match=re.escape("reads u^0..u^4")):
        even_row(sinc_half(4), 3)
    assert even_row(sinc_half(5), 3) == ([1920, -80, 1], 1920)


@given(invertible_series())
def test_inv_is_right_inverse(f):
    g = inv(f)
    assert f * g == USeries.one(f.order - f.valuation)
    assert g.valuation == -f.valuation
    # relative precision is preserved
    assert g.order - g.valuation == f.order - f.valuation


@given(invertible_series())
def test_inv_involution(f):
    assert inv(inv(f)) == f


@given(positive_valuation_series(), positive_valuation_series())
def test_exp_is_homomorphism(f, g):
    assert exp(f + g) == exp(f) * exp(g)


@given(positive_valuation_series())
def test_log_exp_roundtrip(f):
    assert log(exp(f)) == f


@given(unit_series(), unit_series())
def test_log_of_product(f, g):
    assert log(f * g) == log(f) + log(g)


@given(unit_series())
def test_exp_log_roundtrip(f):
    assert exp(log(f)) == f


@given(invertible_series(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_pow_adds_exponents(f, i, j):
    assert pow_int(f, i) * pow_int(f, j) == pow_int(f, i + j)


@given(invertible_series(), st.integers(min_value=1, max_value=4))
def test_negative_pow_is_inverse_pow(f, k):
    assert pow_int(f, -k) == inv(pow_int(f, k))


@given(invertible_series())
def test_pow_zero_is_one(f):
    p = pow_int(f, 0)
    assert p.agrees(USeries.one(1))
    assert p.order == f.order - f.valuation


def repeated_product(f, k):
    """f * ... * f with k >= 1 factors, by the Cauchy product alone."""
    out = f
    for _ in range(k - 1):
        out = out * f
    return out


@given(invertible_series())
def test_pow_matches_repeated_product(f):
    # invertible_series draws valuations -2..2
    n = f.order - f.valuation
    assert pow_int(f, 0) == USeries.one(n)
    for k in range(1, 9):
        power = repeated_product(f, k)
        assert pow_int(f, k) == power
        assert pow_int(f, -k) == inv(power)
        assert pow_int(f, -k) * power == USeries.one(n)


def test_pow_of_zero_series_matches_repeated_product():
    for order in range(-2, 4):
        z = USeries.zero(order)
        assert pow_int(z, 0) == USeries.one(0)
        for k in range(1, 9):
            assert pow_int(z, k) == repeated_product(z, k) == USeries.zero(k * order)
            with pytest.raises(ZeroSeries):
                pow_int(z, -k)


def taylor_exp(f):
    """sum_j f^j / j!; f^j vanishes below u^(j val(f)), so the sum is finite."""
    want = term = USeries.one(f.order)
    j = 1
    while j * f.valuation < f.order:
        term = scaled(term * f, F(1, j))
        want = want + term
        j += 1
    return want


def taylor_log(f):
    """sum_j (-1)^(j+1) x^j / j with x = f - 1."""
    x = f + scaled(USeries.one(f.order), -1)
    want = USeries.zero(f.order)
    term = USeries.one(f.order)
    j = 1
    while j * x.valuation < f.order:
        term = term * x
        want = want + scaled(term, F((-1) ** (j + 1), j))
        j += 1
    return want


@given(positive_valuation_series())
def test_exp_matches_taylor_sum(f):
    assert exp(f) == taylor_exp(f)


@given(unit_series())
def test_log_matches_taylor_sum(f):
    assert log(f) == taylor_log(f)


# ---------------------------------------------------------------- strided series
#
# pow_int, exp and log run their recurrences in x = u^d when the input's
# nonzero terms sit at multiples of d.  These inputs are u^v F(u^d), some with
# one extra term off the stride, some whose only nonzero term is the first.


@st.composite
def strided_series(draw, valuations, first):
    """(f, d): f = u^v (c_0 + c_d u^d + ...), its first coefficient drawn from
    `first`, and d the stride it keeps (1 once an extra term breaks it)."""
    d = draw(st.integers(min_value=1, max_value=4))
    v = draw(valuations)
    n = draw(st.integers(min_value=1, max_value=4 * d + 2))  # coefficients from u^v
    coeffs = [F(0)] * n
    if not draw(st.booleans()):  # else only the first coefficient may be nonzero
        for i in range(d, n, d):
            coeffs[i] = draw(small_fraction)
    coeffs[0] = draw(first)
    off_stride = [i for i in range(1, n) if i % d]
    if off_stride and draw(st.booleans()):
        coeffs[draw(st.sampled_from(off_stride))] = draw(small_fraction.filter(bool))
        d = 1
    return USeries(v, coeffs), d


def assert_off_stride_zero(g, origin, d):
    for e in range(g.valuation, g.order):
        if (e - origin) % d:
            assert g.coefficient(e) == 0, (e, origin, d)


@given(strided_series(st.integers(min_value=-2, max_value=3), small_fraction.filter(bool)))
def test_strided_pow_matches_repeated_product(case):
    f, d = case
    n = f.order - f.valuation
    for k in range(-4, 7):
        got = pow_int(f, k)
        if k == 0:
            assert got == USeries.one(n)
        elif k > 0:
            assert got == repeated_product(f, k)
        else:
            power = repeated_product(f, -k)
            assert got == inv(power)
            assert got * power == USeries.one(n)
        assert got.order - got.valuation == n
        assert_off_stride_zero(got, k * f.valuation, d)


@given(strided_series(st.just(0), st.just(F(0))))
def test_strided_exp_matches_taylor_sum(case):
    f, d = case  # exponents at multiples of d from u^0; the zero series too
    got = exp(f)
    assert got == taylor_exp(f)
    assert_off_stride_zero(got, 0, d)


@given(strided_series(st.just(0), st.just(F(1))))
def test_strided_log_matches_taylor_sum(case):
    f, d = case
    got = log(f)
    assert got == taylor_log(f)
    assert_off_stride_zero(got, 0, d)


def test_strided_edge_cases():
    # one known coefficient: the stride is the whole length
    assert pow_int(USeries(2, [F(3)]), -2) == USeries(-4, [F(1, 9)])
    assert log(USeries.one(1)) == USeries.zero(1)
    # the zero series of positive order has exp 1
    for order in range(1, 6):
        assert exp(USeries.zero(order)) == USeries.one(order)
    # a lone leading term: d = len
    assert pow_int(USeries(-1, [F(2), 0, 0, 0]), 3) == USeries(-3, [F(8), 0, 0, 0])
    assert log(USeries(0, [F(1), 0, 0])) == USeries.zero(3)
    assert exp(USeries(3, [F(5), 0])) == USeries(0, [F(1), 0, 0, F(5), 0])
    # one term off the stride makes the kernel dense again
    f = USeries(0, [F(1), 0, F(1), 0, 0, F(1)])
    assert pow_int(f, 2) == f * f
    assert exp(USeries(2, [F(1), F(1)])) == taylor_exp(USeries(2, [F(1), F(1)]))


# ---------------------------------------------------------------- integer exp and log
#
# exp and log sum each step on integer numerators over the running lcm of the
# result's denominators.  The references run the same recurrences one Fraction
# at a time, on the series in x = u^d.


def fraction_exp(a):
    """[x^m] exp(f) for m < len(a), with a[i] = [x^i] f and a[0] = 0."""
    g = [F(1)]
    for m in range(1, len(a)):
        g.append(sum((i * a[i] * g[m - i] for i in range(1, m + 1)), F(0)) / m)
    return g


def fraction_log(a):
    """[x^m] log(f) for m < len(a), with a[i] = [x^i] f and a[0] = 1."""
    ls = [F(0)]
    for m in range(1, len(a)):
        ls.append(a[m] - sum(((m - i) * a[i] * ls[m - i] for i in range(1, m)), F(0)) / m)
    return ls


def in_u(h, d):
    """The coefficients u^0..u^(d (len(h) - 1)) of the series h in x = u^d."""
    out = [F(0)] * (d * (len(h) - 1) + 1)
    out[::d] = h
    return out


def test_integer_exp_and_log_match_fraction_recurrence():
    # denominators up to 10^12 that share factors, are large primes or are
    # unrelated (random_rational), at strides 1, 2 and 3
    rng = random.Random(12)
    for _ in range(120):
        d = rng.choice((1, 2, 3))
        a = [random_rational(rng) for _ in range(rng.randint(1, 14))]
        a[0] = F(1)
        got = log(USeries(0, in_u(a, d)))
        assert got == USeries(0, in_u(fraction_log(a), d))
        a[0] = F(0)
        got = exp(USeries(0, in_u(a, d)))
        assert got == USeries(0, in_u(fraction_exp(a), d))

