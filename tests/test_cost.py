"""Cost pins: the exact work some calls do, counted in calls and integer products.

A count does not move with machine speed, so it pins what a timing cannot:
that the inverse transform builds each S^k rung only as far as its rows
read it, that the identity grids still build full rows, and how many
`pow_int` calls each transform direction makes.  A change that moves a pin
on purpose updates the number here with the reason.

The products of one `convolve(a, b, n)` are the pairs (i, j) with a[i] and
b[j] nonzero and i + j < n: the multiplications the kernel makes.
"""

import pytest

from sinewall import series, wallcross
from sinewall.wallcross import GenusTable, Kind, gw_from_ugw, ugw_from_gw


@pytest.fixture
def convolves(monkeypatch):
    """The product count of every `convolve` call wallcross makes, in call order."""
    counts, real = [], wallcross.convolve

    def counting(a, b, n):
        b_nonzero = [j for j, y in enumerate(b[:n]) if y]
        counts.append(sum(1 for i, x in enumerate(a[:n]) if x for j in b_nonzero if i + j < n))
        return real(a, b, n)

    monkeypatch.setattr(wallcross, "convolve", counting)
    return counts


@pytest.mark.parametrize("c, g_max, calls, products", [
    # two convolves for the step S^2 at full size, then one per row, row h
    # through x^h: sum of n (n + 1) / 2 for n = 1..g_max; with every rung
    # at full length these read 8150 and 269082
    (3, 24, 26, 2950),
    (3, 80, 82, 91962),
    (-41, 80, 82, 91962),
])
def test_inverse_matrix_convolves(convolves, c, g_max, calls, products):
    wallcross._inverse_matrix(c, g_max)
    assert (len(convolves), sum(convolves)) == (calls, products)


def test_grids_convolve_full_rows(convolves):
    # both grids read every S^k at one size, so trimming leaves them as they were
    assert all(report.passed for report in wallcross.verify_grids(10))
    assert (len(convolves), sum(convolves)) == (255, 4120)


@pytest.mark.parametrize("c, g_max", [(3, 24), (0, 6), (-41, 12), (2, 0)])
def test_pow_int_calls_per_transform(monkeypatch, c, g_max):
    # the inverse takes one power, the seed of its ladder (c = 0 and 2 have
    # a log S row, which takes none); the forward one per column
    calls = []
    real = series.pow_int

    def counting(f, k):
        calls.append(k)
        return real(f, k)

    monkeypatch.setattr(series, "pow_int", counting)
    monkeypatch.setattr(wallcross, "pow_int", counting)
    gw = GenusTable(Kind.GW, c, True, {g: 1 for g in range(g_max + 1)}, g_max)
    ugw = ugw_from_gw(gw)
    assert calls == [2 - c - 2 * g_max]
    calls.clear()
    assert gw_from_ugw(ugw) == gw
    assert calls == [2 * g - 2 + c for g in range(g_max + 1)]
