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
algorithm on Fractions; it and the log S oracle live in
`test_oracle_power_polynomial`, which needs no pytest and checks every
entry of both transform matrices, as polynomials in the exponent.

Two uses reach the transform itself.  Column g of its matrix is
[u^{2(h-g)}] S^{2g-2+c}, the binomial sum wherever 2g - 2 + c >= 0.  And a
rigid (-1,-1) curve in degree 1 (c = 0, primitive) has
sum_g GW_g u^{2g-2} = (2 sin(u/2))^{-2}, so GW_g = [u^{2g}] S^{-2} (Faber and
Pandharipande, "Hodge integrals and Gromov-Witten theory", Invent. Math.
139, 2000): its GV table is n_0 = 1 and n_g = 0 for g >= 1.
"""

import json
from fractions import Fraction as F
from math import comb, factorial

import pytest

from sinewall import hodge, series, wallcross
from sinewall.cli import main
from sinewall.hodge import mu_g0, mu_g1
from sinewall.series import exp, log, pow_int, sinc_half
from sinewall.wallcross import _transform_matrix, sine_factor

from series_scaling import scaled
from test_oracle_power_polynomial import (
    bernoulli,
    inverse_oracle,
    log_s_oracle,
    power_polynomials,
    transform_oracle,
)

LOG_N = 29  # log S through u^58
POWER_J = 19  # S^m and S^{-2} through u^38
MU_G = 20
MATRIX_G_MAX = 40  # the largest g_max the benchmark transforms
MATRIX_CS = (0, 2, 3, 5)
FP_G = 20
POLY_G_MAX = 12  # the power-polynomial oracle, at both |c| = 10^6 and a k = 0 row (c = 0)
POLY_CS = (-10**6, 0, 10**6)

B = bernoulli(2 * LOG_N)


def inverse_square_oracle(n_max):
    """[u^{2n}] S^{-2} for n = 0..n_max."""
    return [(-1) ** (n + 1) * (2 * n - 1) * B[2 * n] / factorial(2 * n)
            for n in range(n_max + 1)]


def sine_power_oracle(m, j_max):
    """[u^{2j}] S^m for m >= 0 and j = 0..j_max, by the binomial sum over 2^(2j+m)."""
    return [F((-1) ** j * sum((-1) ** i * comb(m, i) * (m - 2 * i) ** (2 * j + m)
                              for i in range(m + 1)),
              2 ** (2 * j + m) * factorial(2 * j + m))
            for j in range(j_max + 1)]


def matrix_oracle(c, g_max):
    """{g: [M[h][g] for h = g..g_max]} for every column g with k = 2g - 2 + c >= 0."""
    return {g: sine_power_oracle(2 * g - 2 + c, g_max - g)
            for g in range(g_max + 1) if 2 * g - 2 + c >= 0}


def faber_pandharipande_doc(g_max):
    """The GW table of a rigid (-1,-1) curve in degree 1: GW_g = [u^{2g}] S^{-2}."""
    return {"class": {"c1_dot_beta": 0, "primitive": True}, "kind": "gw", "g_max": g_max,
            "values": {str(g): str(v) for g, v in enumerate(inverse_square_oracle(g_max))}}


def vertex_oracle(g_max):
    """(a_g, b_g) for g = 0..g_max: [u^{2g}] S^2 and [u^{2g}] (S^2 log S)."""
    a = [F(2 * (-1) ** g, factorial(2 * g + 2)) for g in range(g_max + 1)]
    ls = log_s_oracle(g_max)
    b = [sum(a[j] * ls[g - j] for j in range(g + 1)) for g in range(g_max + 1)]
    return a, b


def all_oracles():
    polys = power_polynomials(POLY_G_MAX)
    return (log_s_oracle(LOG_N), inverse_square_oracle(POWER_J),
            [sine_power_oracle(m, POWER_J) for m in range(13)], vertex_oracle(MU_G),
            [matrix_oracle(c, MATRIX_G_MAX) for c in MATRIX_CS], faber_pandharipande_doc(FP_G),
            [(transform_oracle(polys, c, POLY_G_MAX), inverse_oracle(polys, c, POLY_G_MAX))
             for c in POLY_CS])


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
        got = exp(scaled(ls, m))  # m = 0: the zero series, whose exp is 1
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


@pytest.mark.parametrize("c", MATRIX_CS)
def test_transform_matrix_columns_against_binomial_sum(c):
    matrix = [[F(x, den) for x in nums] for nums, den in _transform_matrix(c, MATRIX_G_MAX)]
    columns = matrix_oracle(c, MATRIX_G_MAX)
    assert len(columns) == MATRIX_G_MAX + (0 if c == 0 else 1)  # only c = 0 skips g = 0
    for g, column in columns.items():
        assert [matrix[h][g] for h in range(g, MATRIX_G_MAX + 1)] == column, g


def test_faber_pandharipande_rigid_curve(tmp_path, capsys):
    doc = faber_pandharipande_doc(FP_G)
    assert [doc["values"][str(g)] for g in range(3)] == ["1", "1/12", "1/240"]
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(doc))
    assert main(["transform", "--direction", "gw-to-gv", "--input", str(path),
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kind"], out["g_max"]) == ("gv", FP_G)
    assert out["values"] == {str(g): "1" if g == 0 else "0" for g in range(FP_G + 1)}
    assert main(["check-integrality", "--input", str(path)]) == 0
    assert "integral: yes" in capsys.readouterr().out
    # the same numbers on a class the coverage gate does not admit
    doc["class"]["primitive"] = False
    path.write_text(json.dumps(doc))
    for argv in (["transform", "--direction", "gw-to-gv"], ["check-integrality"]):
        assert main(argv + ["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "primitive=False" in captured.err


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called by a closed-form oracle")
    return refuse


def test_oracles_use_no_series_kernel(monkeypatch):
    want = all_oracles()
    for module in (series, wallcross, hodge):
        for name in ("pow_int", "exp", "log", "sinc_half", "sine_factor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse(name))
    with pytest.raises(AssertionError):
        series.log(None)
    assert all_oracles() == want
