"""An oracle for every entry of both transform matrices: [u^{2m}] S^k as a polynomial in k.

With S = sin(u/2)/(u/2), S^k = exp(k log S), so with L = log S in x = u^2

    P_m(k) = [u^{2m}] S^k = sum_{j <= m} (k^j / j!) [x^m] L^j,

a polynomial in k of degree m, with P_0 = 1 and, as L starts at x^1,
P_m(0) = 0 for m >= 1.  The forward matrix reads M[h][g] = P_{h-g}(2g-2+c).
The inverse reads N[h][g] = (1 - 2m/k) P_m(-k), with k = 2h - 2 + c and
m = h - g >= 1; with R_m(k) = P_m(k) / k that is (2m - k) R_m(-k), a
polynomial too, which at k = 0 is 2m [x^m] L, the log S branch of
`_inverse_matrix`.  So one table of the coefficients [x^m] L^j / j! covers
both matrices, the k = 0 row included, at every c, and so every column the
CLI admits (|c| up to 10^6, g_max up to 80).

L comes from the Bernoulli form of log S,

    [u^{2n}] log S = (-1)^n 2^{2n-1} B_{2n} / (n (2n)! 4^n),    n >= 1,

the Taylor series of log(sin y / y) at y = u/2, with the Bernoulli numbers
from the Akiyama-Tanigawa algorithm on Fractions.  The powers of L come
from the product below, and each P_m is put over one denominator and
evaluated by its own integer Horner step; none of it is `sinewall.series`.

The module needs only the standard library, so the deep check also runs
without pytest:

    PYTHONPATH=src:tests python -c 'import test_oracle_power_polynomial as t
    for c in (-10**6, 10**6): t.check_matrices(c, 80)'
"""

from fractions import Fraction as F
from math import factorial, lcm

from sinewall.wallcross import _inverse_matrix, _transform_matrix

CS = (-10**6, -41, -40, *range(-3, 13), 10**6)  # k = 0 and k = 1 crossings included
G_MAX = 31


def bernoulli(n_max):
    """B_0..B_{n_max} by the Akiyama-Tanigawa algorithm (with B_1 = +1/2)."""
    out, row = [], []
    for m in range(n_max + 1):
        row.append(F(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def log_s_oracle(n_max):
    """[u^{2n}] log S for n = 0..n_max."""
    b = bernoulli(2 * n_max)
    return [F(0)] + [F((-1) ** n * 2 ** (2 * n - 1)) * b[2 * n] / (n * factorial(2 * n) * 4**n)
                     for n in range(1, n_max + 1)]


def product(a, b):
    """The product of two coefficient lists of one length, truncated to that length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1) if a[i] and b[k - i])
            for k in range(len(a))]


def power_polynomials(m_max):
    """P_m for m = 0..m_max, each as (nums, den): P_m(k) = sum_j nums[j] k^j / den."""
    log_s = log_s_oracle(m_max)
    term = [F(int(m == 0)) for m in range(m_max + 1)]  # L^j / j!, from j = 0
    coeffs = [[] for _ in range(m_max + 1)]  # coeffs[m][j] = [x^m] L^j / j!
    for j in range(m_max + 1):
        for m in range(j, m_max + 1):
            coeffs[m].append(term[m])
        term = [x / (j + 1) for x in product(term, log_s)]
    polys = []
    for row in coeffs:
        den = lcm(*(x.denominator for x in row))
        polys.append(([x.numerator * (den // x.denominator) for x in row], den))
    return polys


def horner(nums, k):
    """The integer polynomial nums[0] + nums[1] k + ..., evaluated at the int k."""
    acc = 0
    for y in reversed(nums):
        acc = acc * k + y
    return acc


def transform_oracle(polys, c, g_max):
    """Rows M[h][g] = P_{h-g}(2g - 2 + c), g <= h <= g_max."""
    return [[F(horner(polys[h - g][0], 2 * g - 2 + c), polys[h - g][1]) for g in range(h + 1)]
            for h in range(g_max + 1)]


def inverse_oracle(polys, c, g_max):
    """Rows N[h][g] = (2m - k) R_m(-k), m = h - g >= 1 and k = 2h - 2 + c, and N[h][h] = 1."""
    rows = []
    for h in range(g_max + 1):
        k = 2 * h - 2 + c
        rows.append([F((2 * m - k) * horner(polys[m][0][1:], -k), polys[m][1])
                     for m in range(h, 0, -1)] + [F(1)])
    return rows


def expanded(rows):
    """Matrix rows (integer numerators, one den) as lists of Fractions."""
    return [[F(x, den) for x in nums] for nums, den in rows]


def check_matrices(c, g_max, polys=None):
    """Assert that both transform matrices at (c, g_max) equal the oracle, entry for entry."""
    polys = polys or power_polynomials(g_max)
    forward, inverse = expanded(_transform_matrix(c, g_max)), expanded(_inverse_matrix(c, g_max))
    assert forward == transform_oracle(polys, c, g_max), ("forward", c)
    assert inverse == inverse_oracle(polys, c, g_max), ("inverse", c)


def test_power_polynomials_closed_forms():
    # P_0 = 1, P_1(k) = -k/24 (S = 1 - x/24 + ...), and P_m(0) = 0 for m >= 1
    polys = power_polynomials(6)
    assert polys[:2] == [([1], 1), ([0, -1], 24)]
    assert all(nums[0] == 0 and len(nums) == m + 1 for m, (nums, _) in enumerate(polys[1:], 1))
    # P_m(1) = [x^m] S = (-1)^m / (4^m (2m + 1)!) and P_m(-2) = [x^m] S^-2
    assert [F(horner(nums, 1), den) for nums, den in polys] == [
        F((-1) ** m, 4**m * factorial(2 * m + 1)) for m in range(7)]
    assert [F(horner(nums, -2), den) for nums, den in polys[:4]] == [
        1, F(1, 12), F(1, 240), F(1, 6048)]


def test_both_matrices_against_power_polynomials():
    polys = power_polynomials(G_MAX)
    for c in CS:
        check_matrices(c, G_MAX, polys)
