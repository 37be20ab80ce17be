"""Closed-form oracles for the series kernels that share no code with `sinewall.series`.

With S = sin(u/2)/(u/2), three classical expansions give every coefficient
the kernels compute, from Bernoulli numbers and binomial sums alone:

    [u^{2n}] log S   = (-1)^n 2^{2n-1} B_{2n} / (n (2n)! 4^n),       n >= 1,
    [u^{2n}] S^{-2}  = (-1)^{n+1} (2n - 1) B_{2n} / (2n)!,
    [u^{2j}] S^m     = (-1)^j / (2j + m)! sum_{i=0..m} (-1)^i C(m, i) ((m - 2i)/2)^{2j+m},

the last for m >= 0, the binomial expansion of (2 sin(u/2))^m =
i^{-m} (e^{iu/2} - e^{-iu/2})^m.  The first is the Taylor series of
log(sin x / x) at x = u/2, the second that of (x / sin x)^2.  The vertex
constants follow: a_g = [u^{2g}] S^2 = 2 (-1)^g / (2g + 2)! and
b_g = [u^{2g}] (S^2 log S), the convolution of the a_j with the log S
coefficients.  The Bernoulli numbers come from the Akiyama-Tanigawa
algorithm on Fractions.
"""

from fractions import Fraction as F
from math import comb, factorial

import pytest

import sinewall
from sinewall import exp, log, mu_g0, mu_g1, pow_int, sinc_half, sine_factor

LOG_N = 29  # log S through u^58
POWER_J = 19  # S^m and S^{-2} through u^38
MU_G = 20


def bernoulli(n_max):
    """B_0..B_{n_max} by the Akiyama-Tanigawa algorithm (with B_1 = +1/2)."""
    out, row = [], []
    for m in range(n_max + 1):
        row.append(F(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


B = bernoulli(2 * LOG_N)


def log_s_oracle(n_max):
    """[u^{2n}] log S for n = 0..n_max."""
    return [F(0)] + [F((-1) ** n * 2 ** (2 * n - 1)) * B[2 * n] / (n * factorial(2 * n) * 4**n)
                     for n in range(1, n_max + 1)]


def inverse_square_oracle(n_max):
    """[u^{2n}] S^{-2} for n = 0..n_max."""
    return [(-1) ** (n + 1) * (2 * n - 1) * B[2 * n] / factorial(2 * n)
            for n in range(n_max + 1)]


def sine_power_oracle(m, j_max):
    """[u^{2j}] S^m for m >= 0 and j = 0..j_max, by the binomial sum."""
    return [F((-1) ** j, factorial(2 * j + m))
            * sum((-1) ** i * comb(m, i) * F(m - 2 * i, 2) ** (2 * j + m) for i in range(m + 1))
            for j in range(j_max + 1)]


def vertex_oracle(g_max):
    """(a_g, b_g) for g = 0..g_max: [u^{2g}] S^2 and [u^{2g}] (S^2 log S)."""
    a = [F(2 * (-1) ** g, factorial(2 * g + 2)) for g in range(g_max + 1)]
    ls = log_s_oracle(g_max)
    b = [sum(a[j] * ls[g - j] for j in range(g + 1)) for g in range(g_max + 1)]
    return a, b


def all_oracles():
    return (log_s_oracle(LOG_N), inverse_square_oracle(POWER_J),
            [sine_power_oracle(m, POWER_J) for m in range(13)], vertex_oracle(MU_G))


def even_coefficients(series, n_max):
    assert all(series.coefficient(2 * n + 1) == 0 for n in range(n_max))
    return [series.coefficient(2 * n) for n in range(n_max + 1)]


def test_bernoulli_numbers():
    assert B[:9] == [1, F(1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0, F(-1, 30)]
    assert B[58] == F(84483613348880041862046775994036021, 354)
    assert all(B[k] == 0 for k in range(3, 2 * LOG_N + 1, 2))


def test_log_of_sine_against_bernoulli():
    got = log(sinc_half(2 * LOG_N + 1))
    assert even_coefficients(got, LOG_N) == log_s_oracle(LOG_N)


def test_exp_of_multiple_log_against_binomial_sum():
    ls = log(sinc_half(2 * POWER_J + 1))
    for m in range(13):
        got = exp(ls.scale(m))  # m = 0: the zero series, whose exp is 1
        assert even_coefficients(got, POWER_J) == sine_power_oracle(m, POWER_J), m


def test_inverse_square_against_bernoulli():
    want = inverse_square_oracle(POWER_J)
    assert even_coefficients(pow_int(sinc_half(2 * POWER_J + 1), -2), POWER_J) == want
    assert even_coefficients(sine_factor(0, 0, 2 * POWER_J + 1), POWER_J) == want
    assert even_coefficients(sine_factor(1, -2, 2 * POWER_J + 1), POWER_J) == want


def test_vertex_constants_against_closed_forms():
    a, b = vertex_oracle(MU_G)
    for g in range(1, MU_G + 1):
        assert mu_g1(g) == a[g]
        mv = mu_g0(g)
        assert (mv.a1, mv.a_H, mv.a_c1) == (a[g], -a[g] + 3 * b[g], b[g])


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called by a closed-form oracle")
    return refuse


def test_oracles_use_no_series_kernel(monkeypatch):
    want = all_oracles()
    for module in (sinewall, sinewall.series, sinewall.wallcross, sinewall.hodge):
        for name in ("pow_int", "exp", "log", "sinc_half"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse(name))
    with pytest.raises(AssertionError):
        sinewall.series.log(None)
    assert all_oracles() == want
