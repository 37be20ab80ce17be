"""Transform layer: sine multipliers, the raw combinatorial sum, genus tables."""

import random
import re
from fractions import Fraction as F
from itertools import product
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, strategies as st

from sinewall import hodge, series, wallcross
from sinewall.gv import gv_from_gw
from sinewall.partitions import (
    descending_walk,
    enumerate_threefold_partitions,
    multinomial,
    multiplicities,
)
from sinewall.series import USeries, convolve, exp, log, numerators, pow_int, sinc_half
from sinewall.wallcross import (
    GenusTable,
    Kind,
    MissingGenus,
    VertexData,
    correction_raw_sum,
    eq_sum,
    gw_from_ugw,
    sine_factor,
    ugw_from_gw,
    verify_grids,
)


# ---------------------------------------------------------------- sine_factor


def test_sine_factor_zero_exponent_is_one():
    assert sine_factor(1, 0, 8) == USeries.one(8)
    assert sine_factor(2, -2, 8) == USeries.one(8)
    assert sine_factor(0, 2, 8) == USeries.one(8)


def test_sine_factor_square():
    got = sine_factor(0, 4, 6)
    assert got == USeries(0, [F(1), 0, F(-1, 12), 0, F(1, 360), 0])


def test_sine_factor_inverse_square():
    got = sine_factor(0, 0, 6)
    assert got == USeries(0, [F(1), 0, F(1, 12), 0, F(1, 240), 0])


def test_sine_factor_matches_pow():
    for g in range(4):
        for c in range(-2, 7):
            assert sine_factor(g, c, 8) == pow_int(sinc_half(8), 2 * g - 2 + c)
    assert sine_factor(2, 1, 0) == USeries.zero(0)


# ---------------------------------------------------------------- brackets


def _falling_factorial(x, k):
    """x (x-1) ... (x-k+1); equals 1 when k = 0."""
    x = F(x)
    out = F(1)
    for j in range(k):
        out *= x - j
    return out


def test_falling_factorial():
    assert _falling_factorial(5, 0) == 1
    assert _falling_factorial(3, 2) == 6
    assert _falling_factorial(-2, 3) == -24
    assert _falling_factorial(F(1, 2), 2) == F(-1, 4)


def stripped_bracket(g0, n, n_psi, n_div, c):
    """The bracket multiplier by stripping one insertion marking at a time.

    Starts from n + n_psi + n_div markings; each psi removal contributes
    -(2 g0 - 2 + m) with m the markings remaining after it, then each
    divisor removal contributes 3 (2 g0 - 2) + c.
    """
    total = 1
    m = n + n_psi + n_div
    for _ in range(n_psi):
        total *= -(2 * g0 - 2 + m - 1)
        m -= 1
    return total * (3 * (2 * g0 - 2) + c) ** n_div


def test_reduce_bracket_closed_form():
    # stripping n_psi psi-insertions then n_div divisor insertions equals
    # ff(m1 - n_div, n_psi) * m2^{n_div} with m1 = -(2g0 - 2 + n) and
    # m2 = 3(2g0 - 2) + c: the term a1 = n_psi, a2 = n_div of eq_sum(m1, m2),
    # which is why the raw route reads the eq route's polynomials at m1
    for g0 in range(4):
        for n in range(4):
            for n_psi in range(4):
                for n_div in range(3):
                    for c in (-2, 0, 1, 4):
                        m1 = -(2 * g0 - 2 + n)
                        m2 = 3 * (2 * g0 - 2) + c
                        want = _falling_factorial(m1 - n_div, n_psi) * m2**n_div
                        assert stripped_bracket(g0, n, n_psi, n_div, c) == want


def test_reduce_bracket_base_case():
    # no insertion stripped leaves the base bracket, normalized to 1: so the
    # x^0 coefficient of the eq polynomials is the constant 1 at every m1
    assert stripped_bracket(0, 0, 0, 0, 5) == 1
    assert stripped_bracket(3, 2, 0, 0, -1) == 1
    basis = eq_basis(4)
    for m1 in range(-10, 3):
        polys, den = wallcross._eq_polys(basis, m1, 4)
        assert len(polys) == 4 and polys[0] == [den]
        assert all(len(poly) <= i + 1 for i, poly in enumerate(polys))  # degree <= i in m2


# ---------------------------------------------------------------- eq_sum


def test_eq_sum_trivial():
    assert eq_sum(0, 0, 8) == USeries.one(8)


def test_eq_sum_frozen_binomial_case():
    got = eq_sum(-2, 0, 6)
    assert got == USeries(0, [F(1), 0, F(1, 6), 0, F(11, 720), 0])


def test_eq_sum_pure_first_slot_is_binomial_series():
    s2 = pow_int(sinc_half(10), 2)
    for m1 in range(-4, 3):
        assert eq_sum(m1, 0, 10) == pow_int(s2, m1)


def test_eq_sum_pure_second_slot_is_exponential():
    ls = log(sinc_half(10))
    for m2 in range(-3, 4):
        assert eq_sum(0, m2, 10) == exp(ls.scale(m2))


def test_eq_sum_recovers_sine_power():
    # 2 m1 + m2 is the only combination that matters
    assert eq_sum(-1, 2, 10) == USeries.one(10)
    assert eq_sum(-3, 6, 10) == USeries.one(10)
    assert eq_sum(-1, 6, 12) == pow_int(sinc_half(12), 4)


def test_eq_basis_across_orders_built_once_per_call(monkeypatch):
    # each call builds the basis of its own order and keeps nothing; a grid
    # builds it once, at its x-length: x^0..x^4 reach u^8 and lie below u^9
    for order in (9, 13, 9):
        s = sinc_half(order)
        for m1, m2 in ((-2, 3), (0, -4), (1, 5), (-3, 0)):
            got = eq_sum(m1, m2, order)
            assert got == pow_int(s, 2 * m1 + m2)
            assert eq_sum(m1, m2, order) == got
    assert not [name for name, value in vars(wallcross).items()
                if isinstance(value, dict) and not name.startswith("__")]
    calls = []
    build = wallcross._eq_basis

    def counting(mixed):
        calls.append(len(mixed))
        return build(mixed)

    monkeypatch.setattr(wallcross, "_eq_basis", counting)
    assert verify_grids(6)[1].passed  # the eq grid reaches u^8
    assert calls == [5]
    assert eq_sum(-2, 3, 9) == pow_int(sinc_half(9), -1)
    assert calls == [5, 5]


def eq_basis(size):
    """`_eq_basis` of the standard vertex's table of x^0..x^(size-1), as `eq_sum` builds it."""
    return wallcross._eq_basis(wallcross._vertex_powers(VertexData.standard(size - 1), size))


def reference_eq_basis(size):
    """`_eq_basis` by truncated `USeries` products, converted to integers in x = u^2 afterwards."""
    order = 2 * size - 1

    def cut(f):  # the coefficients below u^order
        return USeries(0, [f.coefficient(k) for k in range(order)])

    s = sinc_half(order)
    s2 = s * s
    t1, t2 = s2 + USeries.one(order).scale(-1), s2 * log(s)
    amax = (order - 1) // 2
    t1_pows, t2_pows = [USeries.one(order)], [USeries.one(order)]
    for _ in range(amax):
        t1_pows.append(cut(t1_pows[-1] * t1))
        t2_pows.append(cut(t2_pows[-1] * t2))
    terms = [[cut(t1_pows[a1] * t2_pows[a2]) for a1 in range(amax + 1 - a2)]
             for a2 in range(amax + 1)]
    assert all(k % 2 == 0 for row in terms for term in row
               for k, b in enumerate(term.coeffs, term.valuation) if b)
    den = lcm(*(b.denominator for row in terms for term in row for b in term.coeffs))
    rows = tuple(tuple(tuple((k // 2, b.numerator * (den // b.denominator))
                             for k, b in enumerate(term.coeffs, term.valuation) if b)
                       for term in row)
                 for row in terms)
    return rows, den


def test_eq_basis_equals_the_series_products():
    for size in range(1, 12):
        assert eq_basis(size) == reference_eq_basis(size)
    assert eq_basis(0) == (((),), 1)  # below u^0: no product has a coefficient


def vertex_eq_basis(size):
    """`_eq_basis` as Psi^a1 Delta^a2 of the standard vertex, by plain `Fraction` products.

    Psi = sum_g mu0_psi[g] x^g and Delta = sum_g mu0_div[g] x^g are read off
    `VertexData.standard(size - 1)`; every power and product is a schoolbook
    product truncated below x^size, with no `convolve` and no `_ladder`.
    """
    vertex = VertexData.standard(size - 1)
    psi, delta = ([F(0)] + [table[g] for g in range(1, size)] for table in vertex[1:])

    def times(a, b):  # both start at x^0 and run to x^(size - 1)
        out = [F(0)] * size
        for i, x in enumerate(a):
            for j, y in enumerate(b[:size - i]):
                if x and y:
                    out[i + j] += x * y
        return out

    one = [F(int(i == 0)) for i in range(size)]
    psi_pows, delta_pows = [one], [one]
    for _ in range(size - 1):
        psi_pows.append(times(psi_pows[-1], psi))
        delta_pows.append(times(delta_pows[-1], delta))
    # one row of a1 per a2 < size; at size 0 the single empty row of a2 = 0
    terms = [[times(psi_pows[a1], delta_pows[a2]) for a1 in range(size - a2)]
             for a2 in range(max(size, 1))]
    den = lcm(*(b.denominator for row in terms for term in row for b in term))
    return (tuple(tuple(tuple((i, b.numerator * (den // b.denominator))
                              for i, b in enumerate(term) if b)
                        for term in row)
                  for row in terms),
            den)


def test_eq_basis_is_the_standard_vertex_table():
    # t1 = S^2 - 1 = Psi and t2 = S^2 log S = Delta: the eq basis is the
    # standard vertex's Psi^a1 Delta^a2, the table the raw grid reads
    for size in range(31):
        assert eq_basis(size) == vertex_eq_basis(size), size


def _raise_if_called(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called by an independent route")
    return refuse


def test_eq_sum_uses_no_closed_form_kernel(monkeypatch):
    # the eq route reads the vertex values and multiplies in integers: it
    # calls no power kernel of the closed side (pow_int, sine_factor,
    # _sine_powers) and builds no S or log S of its own
    want = {m: pow_int(sinc_half(13), 2 * m[0] + m[1]) for m in ((-2, 3), (3, -1))}
    assert not hasattr(wallcross, "exp")
    for module, name in ((wallcross, "pow_int"), (series, "pow_int"), (wallcross, "sine_factor"),
                         (wallcross, "_sine_powers"), (wallcross, "sinc_half"),
                         (wallcross, "log")):
        monkeypatch.setattr(module, name, _raise_if_called(name))
    monkeypatch.setattr(hodge, "_memo", ())  # so that the vertex values are built here too
    basis = eq_basis(7)  # x^0..x^6 lie below u^13
    for m, closed in want.items():  # each call builds its basis from the vertex values
        assert eq_sum(*m, 13) == closed
    for name in ("sinc_half", "log"):
        monkeypatch.setattr(hodge, name, _raise_if_called(name))
    for (m1, m2), closed in want.items():  # on a prebuilt basis: no series kernel at all
        polys, den = wallcross._eq_polys(basis, m1, 7)
        nums = wallcross._horner(polys, m2)
        assert USeries(0, series._spread([F(x, den) for x in nums], 2, 13)) == closed


def test_eq_sum_refuses_a_float_argument():
    # eq_sum(0.1, 2, 6) used to compute with the binary expansion of 0.1; m1
    # and m2 are ints, so a Fraction and a bool are refused too
    for bad in (0.1, F(1, 2), True):
        with pytest.raises(TypeError, match=rf"m1 must be an int, got {re.escape(repr(bad))}"):
            eq_sum(bad, 2, 6)
    for bad in (2.0, F(3, 2), False):
        with pytest.raises(TypeError, match=rf"m2 must be an int, got {re.escape(repr(bad))}"):
            eq_sum(-1, bad, 6)


def test_verify_eq_sum_grid():
    rep = verify_grids(6)[1]  # the eq grid, through u^8
    assert rep.passed
    assert len(rep.cells) == 7 * 19
    assert [cell.key for cell in rep.cells] == list(product(range(-6, 1), range(-6, 13)))
    assert rep.first_failure is None
    assert "pass" in rep.summary()


def test_eq_grid_failure_report_matches_series_comparison(monkeypatch):
    # a negative control for the integer comparison: one numerator of the
    # basis's t2^1 shifted; the grid's failing cells, their order and their
    # details equal those of comparing eq_sum with the closed series
    internal, size = 9, 5  # x^0..x^4 reach u^8 and lie below u^9
    rows, den = eq_basis(size)
    (k, b), *rest = rows[1][0]  # a2 = 1, a1 = 0
    bumped = rows[:1] + ((((k, b + 1), *rest),) + rows[1][1:],) + rows[2:]

    def bumped_basis(mixed):
        assert len(mixed) == size
        return bumped, den

    monkeypatch.setattr(wallcross, "_eq_basis", bumped_basis)
    m1s, m2s = range(-6, 1), range(-6, 13)
    rep = verify_grids(6)[1]  # the eq grid, through u^8
    s = sinc_half(internal)
    s2, ls = s * s, log(s)
    want = []
    for m1 in m1s:
        for m2 in m2s:
            got, closed = eq_sum(m1, m2, internal), pow_int(s2, m1) * exp(ls.scale(m2))
            if got != closed:
                e = next(e for e in range(internal) if got.coefficient(e) != closed.coefficient(e))
                want.append(((m1, m2),
                             f"u^{e}: got {got.coefficient(e)}, want {closed.coefficient(e)}"))
    assert 0 < len(want) < len(rep.cells)  # m2 = 0 never reads t2
    # the first failing key, its detail and the failing-cell count, and every other cell
    assert [(cell.key, cell.detail) for cell in rep.cells if not cell.passed] == want


def test_cell_compares_every_coefficient_by_cross_multiplication():
    # equal fractions over different denominators pass; a change at any one
    # coefficient in x = u^2, to zero or away from it, fails naming its exponent in u
    want = [6, 0, -3, 0, 5, 2, 0]
    assert wallcross._cell("k", [x * 7 for x in want], 84, want, 12).passed
    with pytest.raises(ValueError):  # a short side is an error, not a truncated comparison
        wallcross._cell("k", want[:-1], 12, want, 12)
    for e in range(len(want)):
        for value in (0, want[e] + 1):
            if value == want[e]:
                continue
            got = want[:e] + [value] + want[e + 1:]
            cell = wallcross._cell("k", got, 12, want, 12)
            assert not cell.passed
            assert cell.detail == f"u^{2 * e}: got {F(value, 12)}, want {F(want[e], 12)}"


def test_grid_cells_compare_whole_rows_or_cross_multiply():
    # a row over a multiple of the closed denominator is one comparison; any
    # other cell, a closed row not in lowest terms included, is cross-multiplied,
    # and a failing cell keeps the detail of `_cell`
    want = [12, -2, 1]  # 1 - x/6 + x^2/12, in lowest terms over 12
    closed = {0: (want, 12), 1: ([24, -4, 2], 24)}  # row 1 the same series, not reduced
    computed = [
        ("over 84", 0, [x * 7 for x in want], 84),
        ("over 12", 0, want, 12),
        ("unreduced row", 1, want, 12),
        ("unreduced cell", 0, [36, -6, 3], 36),
        ("off at x^2", 0, [12, -2, 2], 12),
        ("off at x^1", 1, [12, 0, 1], 12),
    ]
    cells = wallcross._grid_cells(iter(computed), closed)
    assert [cell.key for cell in cells] == [key for key, *_ in computed]
    assert [cell.passed for cell in cells] == [True, True, True, True, False, False]
    assert [cell.detail for cell in cells[4:]] == ["u^4: got 1/6, want 1/12",
                                                    "u^2: got 0, want -1/6"]
    with pytest.raises(ValueError):  # a short side is an error here too
        wallcross._grid_cells(iter([("short", 0, want[:-1], 12)]), closed)


def as_fractions(polys, den):
    """`_eq_polys` output as lists of `Fraction` coefficients, comparable across denominators."""
    return [[F(y, den) for y in poly] for poly in polys]


def test_grids_read_a_shared_table_cut_to_their_order():
    # one table of sine powers and one eq basis, through the larger order,
    # serve both grids: the raw grid reads each cut to its own order (the
    # sine rows back in lowest terms), and the polynomials it reads from the
    # larger basis, cut, are those of a basis of its own size
    bad = VertexData.standard(6).perturbed("mu0_div", 2, F(1, 1000))
    for order in (0, 1, 6, 9, 10):
        size = order // 2 + 1
        closed = wallcross._sine_powers(range(-18, 13), size + 1)
        for n in range(size + 2):
            cut = wallcross._cut(closed, n)
            for ks in ({0}, set(range(-4, 11)), set(range(-18, 13))):
                assert {k: cut[k] for k in ks} == wallcross._sine_powers(ks, n)
        for vertex in (bad, VertexData.standard(size)):
            large = wallcross._eq_basis(wallcross._vertex_powers(vertex, size + 1))
            own = wallcross._eq_basis(wallcross._vertex_powers(vertex, size))
            for m1 in range(-10, 3):
                polys, den = wallcross._eq_polys(large, m1, size + 1)
                assert as_fractions(polys[:size], den) == as_fractions(
                    *wallcross._eq_polys(own, m1, size))


def marked_step(vertex, size):
    """The series 1 + M, M = sum_g mu1[g] x^g, through x^(size-1), as `Fraction`s."""
    return [F(1), *(vertex.mu1[g] for g in range(1, size))]


def test_eq_paths_build_no_m_ladder(monkeypatch):
    # M is the marked-point series of mu1, which only the raw route reads:
    # eq_sum builds the ladders of Psi and Delta alone, and verify_grids
    # builds those once, for both grids, and the ladder on 1 + M once, to
    # its rung 4 (n = 0..4), for the raw grid at its own size
    vertices, roles, steps = [], [], []
    standard, powers, ladder = VertexData.standard, wallcross._series_powers, wallcross._ladder

    def recording_standard(cls, g_top):
        vertices.append(standard(g_top))
        return vertices[-1]

    def recording(table, size):
        roles.extend(name for vertex in vertices for name in ("mu1", "mu0_psi", "mu0_div")
                     if getattr(vertex, name) is table)
        return powers(table, size)

    def recording_ladder(step, step_den, top, size):
        steps.append(([F(x, step_den) for x in step], top, size))
        return ladder(step, step_den, top, size)

    monkeypatch.setattr(VertexData, "standard", classmethod(recording_standard))
    monkeypatch.setattr(wallcross, "_series_powers", recording)
    monkeypatch.setattr(wallcross, "_ladder", recording_ladder)
    assert eq_sum(-2, 3, 9) == pow_int(sinc_half(9), -1)
    assert roles == ["mu0_psi", "mu0_div"]
    assert [step[0] for step, _, _ in steps] == [0, 0]  # Psi and Delta only
    roles.clear()
    steps.clear()
    assert all(rep.passed for rep in verify_grids(4))
    assert roles == ["mu0_psi", "mu0_div"]
    one_plus_m = marked_step(vertices[-1], 3)  # x^0..x^2 reach u^4
    assert [(top, size) for step, top, size in steps if step == one_plus_m] == [(4, 3)]


def test_default_grids_build_each_closed_side_once(monkeypatch):
    # both grids read one table of sine powers holding exactly the exponents
    # the eq grid reads, 2 m1 + m2 = -18..12, which hold the raw grid's
    # k = 2 g0 - 2 + c = -4..10, through x^6 (u^12), the raw grid reading it
    # cut to x^5 (u^10).  The table builds S (one term further, through x^7)
    # once and inverts it once;
    # no closed side goes through sine_factor or exp (which wallcross no
    # longer imports), and cells are compared in integers, so neither eq_sum
    # nor any series round trip runs
    assert not hasattr(wallcross, "exp")
    calls, inside = [], []
    table, sinc, power = wallcross._sine_powers, wallcross.sinc_half, wallcross.pow_int

    def counting_table(ks, size):
        ks = set(ks)
        calls.append(("_sine_powers", sorted(ks), size))
        inside.append(True)
        try:
            return table(ks, size)
        finally:
            inside.pop()

    def counting_sinc(order):
        if inside:  # the vertex values build their own S, outside the table
            calls.append(("sinc_half", order))
        return sinc(order)

    def counting_power(f, k):
        calls.append(("pow_int", k, bool(inside)))
        return power(f, k)

    monkeypatch.setattr(wallcross, "_sine_powers", counting_table)
    monkeypatch.setattr(wallcross, "sinc_half", counting_sinc)
    monkeypatch.setattr(wallcross, "pow_int", counting_power)
    for name in ("sine_factor", "eq_sum", "_spread"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    assert all(rep.passed for rep in verify_grids(10))
    assert calls == [("_sine_powers", list(range(-18, 13)), 7), ("sinc_half", 15),
                     ("pow_int", -1, True)]


def test_sine_powers_equal_sine_factor():
    # the grids' closed side against the transform's kernel, as fractions:
    # every exponent both default grids read, through every x^(size-1) up to
    # x^15 (u^30); the transform's series holds zeros at every odd exponent
    ks = range(-18, 13)
    for size in range(0, 16):
        powers = wallcross._sine_powers(ks, size)
        assert sorted(powers) == list(ks)
        for k, (nums, den) in powers.items():
            factor = sine_factor(0, k + 2, 2 * size)
            assert not any(factor.coeffs[1::2])
            want, want_den = numerators(factor.coeffs[::2])
            assert len(nums) == len(want) == size
            assert [F(x, den) for x in nums] == [F(y, want_den) for y in want]
    assert wallcross._sine_powers([3, -1], 0) == {3: ([], 1), -1: ([], 1)}
    assert wallcross._sine_powers([], 9) == {}
    assert wallcross._sine_powers([0], 2) == {0: ([1, 0], 1)}
    assert wallcross._sine_powers([0, -2], 1) == {0: ([1], 1), -2: ([1], 1)}


def test_sine_powers_use_no_log_exp_or_sine_factor(monkeypatch):
    # the closed side shares no kernel with the vertex values both grids
    # check (log S) or with the transform (sine_factor): S, one inverse and
    # integer products only
    want = wallcross._sine_powers(range(-7, 8), 8)
    assert not hasattr(wallcross, "exp")
    for name in ("log", "sine_factor", "_vertex_powers"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    # nor any vertex value, which both routes it checks are built from
    monkeypatch.setattr(VertexData, "standard", _raise_if_called("VertexData.standard"))
    monkeypatch.setattr(hodge, "mu_values", _raise_if_called("mu_values"))
    for name in ("exp", "log"):
        monkeypatch.setattr(series, name, _raise_if_called(name))
    assert wallcross._sine_powers(range(-7, 8), 8) == want


# ---------------------------------------------------------------- raw sum


def test_raw_sum_matches_sine_square():
    assert correction_raw_sum(0, 2, 4, 7) == sine_factor(0, 4, 7)


def test_raw_sum_trivial_exponent():
    assert correction_raw_sum(1, 0, 0, 9) == USeries.one(9)
    assert correction_raw_sum(2, 3, -2, 9) == USeries.one(9)


def test_raw_sum_is_independent_of_markings():
    for g0 in range(3):
        for c in (-2, 1, 4):
            base = correction_raw_sum(g0, 0, c, 9)
            for n in range(1, 5):
                assert correction_raw_sum(g0, n, c, 9) == base


def test_rung_is_the_ladder_rung():
    step = numerators(marked_step(VertexData.standard(6), 7))
    assert [wallcross._rung(*step, n, 7) for n in range(21)] == wallcross._ladder(*step, 20, 7)


def test_raw_sum_cost_grows_with_log_n(monkeypatch):
    # one cell reads rung n of 1 + M by repeated squaring, not up a ladder of n convolves
    for g0, c in ((0, 4), (1, -2), (3, 1)):
        assert correction_raw_sum(g0, 10**5, c, 13) == sine_factor(g0, c, 13)
    calls = []

    def counting(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(wallcross, "convolve", counting)
    counts = []
    for n in (10**3, 10**5):
        calls.clear()
        correction_raw_sum(2, n, 4, 13)
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 14  # at most one squaring and one product per doubling


def test_raw_sum_validation():
    with pytest.raises(ValueError):
        correction_raw_sum(-1, 0, 0, 6)
    with pytest.raises(ValueError):
        correction_raw_sum(0, -1, 0, 6)
    assert correction_raw_sum(1, 0, 3, 0) == USeries.zero(0)


def test_verify_raw_equals_closed_small_grid():
    rep = verify_grids(8)[0]  # the raw grid, through u^8
    assert rep.passed
    assert len(rep.cells) == 4 * 5 * 9
    assert [cell.key for cell in rep.cells] == list(product(range(4), range(5), range(-2, 7)))
    assert all(cell.passed for cell in rep.cells)


def test_grids_pass_vacuously_at_negative_orders():
    # at a negative order a grid compares no coefficient, and at order 0 only
    # u^0: every cell of the full grid passes, as the other identity rows
    # do, and nothing raises
    for order in range(-3, 1):
        for rep, want in zip(verify_grids(order), verify_grids(0)):
            assert rep.passed
            assert [cell.key for cell in rep.cells] == [cell.key for cell in want.cells]
    # and a vertex table needs no genus there, the eq grid's u^1 included
    assert all(rep.passed for rep in verify_grids(-1, vertex=VertexData({}, {}, {})))


def test_raw_sum_detects_mu1_perturbation():
    vertex = VertexData.standard(5).perturbed("mu1", 1, F(1, 1000))
    # marked-point multipliers never enter unmarked sums, nor the eq grid
    assert correction_raw_sum(0, 0, 3, 9, vertex) == sine_factor(0, 3, 9)
    assert correction_raw_sum(0, 1, 3, 9, vertex) != sine_factor(0, 3, 9)
    rep, eq = verify_grids(8, vertex=vertex)
    assert not rep.passed and eq.passed
    assert rep.first_failure.key[1] >= 1
    assert "u^" in rep.first_failure.detail


def test_raw_sum_detects_mu0_psi_perturbation():
    vertex = VertexData.standard(4).perturbed("mu0_psi", 1, F(1, 1000))
    assert correction_raw_sum(0, 0, 3, 9, vertex) != sine_factor(0, 3, 9)


def test_raw_sum_detects_mu0_div_perturbation():
    vertex = VertexData.standard(6).perturbed("mu0_div", 2, F(1, 1000))
    rep, _ = verify_grids(10, vertex=vertex)
    assert not rep.passed


def per_partition_sums(vertex, size):
    """The vertex-only sums of the raw route for added genus s < ``size``, walked per partition.

    Returns (marked, inserted) as `Fraction`s, with

        marked[s][k]       = sum over lists g1 of genus s with k parts of
                             multinomial(k, repeats) * prod mu1[g_i]
        inserted[s][k][j]  = sum over lists g2 of genus s with k parts of
                             by_psi[j] / prod(repeats!),
        by_psi[j]          = [x^j] prod_i (mu0_psi[g_i] x + mu0_div[g_i]),

    j counting the insertions read as -psi.  Each part's entries are integers
    over one denominator, so a list of k parts is summed over its k-th power.
    """
    genera = range(1, size)
    den_v = lcm(*(table[g].denominator for table in vertex for g in genera))
    mu1, mu0_psi, mu0_div = ({g: table[g].numerator * (den_v // table[g].denominator)
                              for g in genera} for table in vertex)
    marked, inserted = [], []
    for s in range(size):
        m_row = [0] * (s + 1)
        i_row = [[0] * (k + 1) for k in range(s + 1)]
        for parts in (parts for parts in descending_walk(s) if sum(parts) == s):
            by_psi = [1]
            for gi in parts:
                psi, div = mu0_psi[gi], mu0_div[gi]
                nxt = [b * div for b in by_psi] + [0]
                for j, b in enumerate(by_psi):
                    nxt[j + 1] += b * psi
                by_psi = nxt
            k = len(parts)
            weight = multinomial(k, multiplicities(parts))
            m_row[k] += weight * prod(mu1[gi] for gi in parts)
            for j, b in enumerate(by_psi):
                i_row[k][j] += weight * b
        marked.append([F(x, den_v**k) for k, x in enumerate(m_row)])
        # multinomial(k, repeats) / k! = 1 / prod(repeats!)
        inserted.append([[F(x, den_v**k * factorial(k)) for x in by_k]
                         for k, by_k in enumerate(i_row)])
    return marked, inserted


def test_raw_route_equals_the_per_partition_sums():
    # the raw route's two factors against the per-partition sums, which share
    # no algorithm with them: rung n of the ladder on 1 + M against the marked
    # lists with at most n parts, C(n, k) orderings of the marked points each,
    # and the eq polynomials at m1 = -b against the insertion lists, each
    # bracket b = 2 g0 - 2 + n stripped one marking at a time
    # the sums of genus s < size do not depend on size, so one walk serves every size
    def check(vertex, sizes):
        marked, inserted = per_partition_sums(vertex, sizes[-1])
        want_marked = [[sum(comb(n, k) * x for k, x in enumerate(row)) for row in marked]
                       for n in range(5)]
        want_inserted = {}
        for b in range(-2, 11):
            want_inserted[b] = []
            for row in inserted:
                poly = [F(0)] * len(row)  # in the divisor weight B
                for k, by_k in enumerate(row):
                    for j, x in enumerate(by_k):
                        # g0 = 0 and n = b + 2 give the bracket b; c = 7 gives B = 1
                        poly[k - j] += x * stripped_bracket(0, b + 2, j, k - j, 7)
                while poly and not poly[-1]:
                    poly.pop()
                want_inserted[b].append(poly)
        for size in sizes:
            rungs = wallcross._ladder(*numerators(marked_step(vertex, size)), 4, size)
            assert [[F(x, den) for x in nums] for nums, den in rungs] == [
                want[:size] for want in want_marked]
            basis = wallcross._eq_basis(wallcross._vertex_powers(vertex, size))
            for b, want in want_inserted.items():
                assert as_fractions(*wallcross._eq_polys(basis, -b, size)) == want[:size], (size, b)

    standard = VertexData.standard(28)
    shifted = standard.perturbed("mu0_psi", 2, F(3, 7)).perturbed("mu1", 1, F(-5, 11))
    check(standard, range(0, 30))  # 29: verify-identities at order 57
    check(shifted, range(0, 17))
    rng = random.Random(24)
    for size in range(0, 13):
        base = random_vertex(rng, 12)
        for field in ("mu1", "mu0_psi", "mu0_div"):
            delta = F(rng.randint(1, 9), rng.randint(1, 12))
            check(base.perturbed(field, rng.randint(1, 12), delta), range(size, size + 1))


def test_raw_sum_rejects_short_vertex_table():
    with pytest.raises(ValueError):
        correction_raw_sum(0, 0, 3, 11, VertexData.standard(3))


def brute_force_bracket(g0, n, c, g2, vertex):
    """The bracket expanded over all 2^k2 choices of -psi or 3H + c1 per part."""
    total = F(0)
    for pick in product((0, 1), repeat=len(g2)):
        coef = F(1)
        for gi, which in zip(g2, pick):
            coef *= vertex.mu0_psi[gi] if which == 0 else vertex.mu0_div[gi]
        n_psi = pick.count(0)
        total += coef * stripped_bracket(g0, n, n_psi, len(g2) - n_psi, c)
    return total


def raw_sum_oracle(g0, n, c, order, vertex):
    """The raw sum over the full partition listing, filtered to root genus g0."""
    coeffs = [F(0)] * order
    coeffs[0] = F(1)
    for delta in range(1, (order - 1) // 2 + 1):
        for p in enumerate_threefold_partitions(g0 + delta, n):
            if p.g0 != g0:
                continue
            k1 = len(p.g1)
            weight = F(comb(n, k1) * multinomial(k1, multiplicities(p.g1)))
            for gi in p.g1:
                weight *= vertex.mu1[gi]
            symmetry = 1
            for m in multiplicities(p.g2):
                symmetry *= factorial(m)
            coeffs[2 * delta] += weight * brute_force_bracket(g0, n, c, p.g2, vertex) / symmetry
    return USeries(0, coeffs)


def random_vertex(rng, g_top):
    """Vertex tables with small random entries, about a quarter of them zero."""
    def table():
        return {g: F(0) if rng.random() < 0.25 else F(rng.randint(-9, 9), rng.randint(1, 12))
                for g in range(1, g_top + 1)}
    return VertexData(table(), table(), table())


def test_raw_sum_matches_oracle_on_random_vertex():
    # order 13 reaches delta = 6, so g2 = (1,)*6 gives k2 = 6; orders 1..3
    # hold only the constant term and at most delta = 1
    rng = random.Random(2405)
    for g0, n, c in ((0, 0, 4), (1, 2, -1), (2, 4, 3), (3, 1, 0)):
        vertex = random_vertex(rng, 6)
        for order in (1, 2, 3, 13):
            got = correction_raw_sum(g0, n, c, order, vertex)
            assert got == raw_sum_oracle(g0, n, c, order, vertex)


def _count_poly_builds(monkeypatch, calls):
    build = wallcross._eq_polys

    def counting(basis, m1, size):
        calls.append((m1, size))
        return build(basis, m1, size)

    monkeypatch.setattr(wallcross, "_eq_polys", counting)


def test_grid_builds_standard_vertex_once(monkeypatch):
    # for both grids, at the eq grid's genus, and the polynomials in m2 once
    # per m1 the two grids read, at the eq grid's size: the eq grid's -6..0
    # and the raw grid's -(2 g0 - 2 + n) = -8..2
    vertex_calls, poly_calls = [], []
    build = VertexData.standard
    _count_poly_builds(monkeypatch, poly_calls)

    def counting(cls, g_top):
        vertex_calls.append(g_top)
        return build(g_top)

    monkeypatch.setattr(VertexData, "standard", classmethod(counting))
    assert all(rep.passed for rep in verify_grids(8))
    assert vertex_calls == [5]
    assert sorted(poly_calls) == [(m1, 6) for m1 in range(-8, 3)]  # x^0..x^5 reach u^10


def test_grid_uses_supplied_vertex_as_given(monkeypatch):
    vertex = VertexData.standard(5)
    poly_calls, powers = [], []
    build = wallcross._vertex_powers

    def no_build(cls, g_top):
        raise AssertionError("standard vertex data rebuilt despite a supplied table")

    def recording(vertex, size):
        powers.append(vertex)
        return build(vertex, size)

    _count_poly_builds(monkeypatch, poly_calls)
    monkeypatch.setattr(VertexData, "standard", classmethod(no_build))
    monkeypatch.setattr(wallcross, "_vertex_powers", recording)
    rep, eq = verify_grids(8, vertex=vertex)
    assert rep.passed and eq.passed
    assert len(rep.cells) == 4 * 5 * 9
    assert len(poly_calls) == 11
    assert len(powers) == 1 and powers[0] is vertex  # the one table both computed sides read


def numerator_series(nums, den, order):
    """The series sum_i (nums[i] / den) u^(2i) of a grid cell's integer seam, below u^order."""
    coeffs = [F(0)] * order
    coeffs[::2] = [F(x, den) for x in nums]
    return USeries(0, coeffs)


def test_grid_cells_match_standalone_raw_sum_on_random_vertex(monkeypatch):
    # each cell the grid computes from its shared polynomials and ladder
    # equals the standalone call and the full-listing oracle, and its
    # verdict follows; the grid hands its cells over in key order
    grids = []
    compare = wallcross._grid_cells

    def recording(computed, closed):
        grids.append(list(computed))
        return compare(grids[-1], closed)

    monkeypatch.setattr(wallcross, "_grid_cells", recording)
    rng = random.Random(518)
    for _ in range(2):
        vertex = random_vertex(rng, 5)
        grids.clear()
        rep, _ = verify_grids(8, vertex=vertex)
        raw = grids[0]
        assert len(rep.cells) == len(raw) == 4 * 5 * 9
        assert [key for key, *_ in raw] == [cell.key for cell in rep.cells]
        for cell, (key, k, got, den) in zip(rep.cells, raw):
            series = numerator_series(got, den, 9)
            assert k == 2 * key[0] - 2 + key[2]
            assert series == correction_raw_sum(*key, 9, vertex)
            assert series == raw_sum_oracle(*key, 9, vertex)
            assert cell.passed == (series == sine_factor(key[0], key[2], 9))


def test_grid_failure_reports_unchanged_under_perturbation():
    # criterion 7's perturbations: first failing key, its detail and the
    # number of failing cells on the raw grid's corner g0 <= 1, n <= 2,
    # c = 0..2, and the failing cells of both whole grids, through u^8 at
    # orders 8 and 9 (u^9 is odd, so both compare x^0..x^4 in the raw grid
    # and x^0..x^5 in the eq grid; the odd order catches an off-by-one x-length)
    base = VertexData.standard(5)
    expected = {
        ("mu1", 1): ((0, 1, 0), "u^2: got 253/3000, want 1/12", 12, 144, 0),
        ("mu0_psi", 1): ((0, 0, 0), "u^2: got 32/375, want 1/12", 17, 178, 132),
        ("mu0_div", 2): ((0, 0, 0), "u^4: got -11/6000, want 1/240", 15, 170, 126),
    }
    for (field, genus), (key, detail, failing, raw_failing, eq_failing) in expected.items():
        for order in (8, 9):
            raw, eq = verify_grids(order, vertex=base.perturbed(field, genus, F(1, 1000)))
            corner = [cell for cell in raw.cells if cell.key[0] <= 1 and cell.key[1] <= 2
                      and 0 <= cell.key[2] <= 2]
            first = next(cell for cell in corner if not cell.passed)
            assert (first.key, first.detail) == (key, detail)
            assert sum(not cell.passed for cell in corner) == failing
            assert sum(not cell.passed for cell in raw.cells) == raw_failing
            assert sum(not cell.passed for cell in eq.cells) == eq_failing


def test_raw_route_uses_no_closed_form_kernel(monkeypatch):
    vertex = VertexData.standard(6)
    want = {key: sine_factor(key[0], key[2], 13) for key in ((0, 0, 4), (2, 3, -1))}
    assert not hasattr(wallcross, "exp")
    assert not hasattr(wallcross, "descending_walk")  # the vertex tables are powers, not a walk
    for name in ("pow_int", "log", "sinc_half", "sine_factor"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    basis = wallcross._eq_basis(wallcross._vertex_powers(vertex, 7))  # below u^13
    rungs = wallcross._ladder(*numerators(marked_step(vertex, 7)), 4, 7)
    for (g0, n, c), series in want.items():
        assert correction_raw_sum(g0, n, c, 13) == series
        assert correction_raw_sum(g0, n, c, 13, vertex) == series
        # on a prebuilt basis and ladder: the polynomials at m1 = -(2 g0 - 2 + n),
        # evaluated at B = 3(2 g0 - 2) + c, times the rung (1 + M)^n
        polys, den = wallcross._eq_polys(basis, -(2 * g0 - 2 + n), 7)
        marked, m_den = rungs[n]
        nums = convolve(marked, wallcross._horner(polys, 3 * (2 * g0 - 2) + c), 7)
        assert numerator_series(nums, den * m_den, 13) == series


def test_raw_routes_refuse_a_c_that_is_not_an_int():
    with pytest.raises(TypeError, match="c must be an int"):
        correction_raw_sum(1, 1, 2.5, 6)


def test_raw_sum_and_sine_factor_refuse_arguments_that_are_not_ints():
    # correction_raw_sum(1.5, 0, 0, 5) used to fail inside Fraction, and with
    # g0 = True to compute as g0 = 1; sine_factor(1.5, 0, 4) failed as a
    # series coefficient
    for args, name in (((1.5, 0, 0, 5), "g0"), ((True, 0, 0, 5), "g0"), ((0, 2.0, 0, 5), "n"),
                       ((0, F(1), 0, 5), "n"), ((0, 0, True, 5), "c")):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            correction_raw_sum(*args)
    for args, name in (((1.5, 0, 4), "g"), ((False, 0, 4), "g"), ((1, F(3), 4), "c"),
                       ((1, 2.0, 0), "c")):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            sine_factor(*args)


@pytest.mark.parametrize("order", [True, False, 4.0, F(4), "4"])
def test_kernels_refuse_an_order_that_is_not_an_int(order):
    # order = True used to run as order 1, and 4.0 failed deep inside with
    # "can't multiply sequence by non-int" or as "g_top must be an int"
    calls = (lambda: sinc_half(order), lambda: sine_factor(1, 2, order),
             lambda: eq_sum(-1, 2, order), lambda: correction_raw_sum(1, 2, 3, order),
             lambda: verify_grids(order))
    refusal = rf"^order must be an int, got {re.escape(repr(order))}$"
    for call in calls:
        with pytest.raises(TypeError, match=refusal):
            call()


def test_vertex_data_refuses_a_genus_or_a_value_that_is_not_exact():
    # a bool value used to compute as 1, a float one to fail deep inside with
    # AttributeError, and a genus 2.0 to serve as genus 2; each table is
    # checked, as GenusTable checks its values
    good = {1: F(-1, 12), 2: 3}
    for index, name in enumerate(VertexData._fields):
        def build(table):
            return VertexData(*(table if i == index else dict(good) for i in range(3)))

        for genus in (True, 2.0, F(2), "2"):
            refusal = rf"^genus must be an int, got {re.escape(repr(genus))}$"
            with pytest.raises(TypeError, match=refusal):
                build({genus: F(1)})
        for value in (True, False, "1/3", None, [1]):
            refusal = (rf"^{name} at genus 2 must be an int or a Fraction, "
                       rf"got {re.escape(repr(value))}$")
            with pytest.raises(TypeError, match=refusal):
                build({1: F(1), 2: value})
        with pytest.raises(ValueError, match=rf"^{name} at genus 1: float values are not exact"):
            build({1: 0.5})
        assert build({1: 1, 2: F(1, 3)})[index] == {1: 1, 2: F(1, 3)}
    # perturbed builds through the constructor, so a new genus is checked too
    with pytest.raises(TypeError, match="genus must be an int, got 7.0"):
        VertexData.standard(3).perturbed("mu1", 7.0, F(1, 1000))


def test_vertex_perturbation_is_local():
    base = VertexData.standard(3)
    bumped = base.perturbed("mu1", 2, F(1, 1000))
    assert base.mu1[2] == F(1, 360)
    assert bumped.mu1[2] == F(1, 360) + F(1, 1000)
    assert bumped.mu0_psi == base.mu0_psi
    with pytest.raises(AttributeError):
        base.perturbed("no_such_table", 1, F(1, 2))


# ---------------------------------------------------------------- genus tables


def test_genus_table_coercion_and_access():
    t = GenusTable(Kind.GW, 4, True, {0: 1, 2: F(1, 3)}, 3)
    assert t.value(0) == 1
    assert t.value(1) == 0
    assert t.value(2) == F(1, 3)
    assert t.dense() == {0: F(1), 1: F(0), 2: F(1, 3), 3: F(0)}


def test_genus_table_validation():
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {}, -1)
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {-1: 1}, 2)
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {3: 1}, 2)
    with pytest.raises(TypeError):
        GenusTable(Kind.GW, 0, True, {F(1, 2): 1}, 2)
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {0: 0.5}, 2)
    # a float g_max used to build and fail in gw_from_ugw, g_max=True was read
    # as 1, and a kind "ugw" failed in the transforms with an AttributeError
    for g_max in (2.0, True):
        with pytest.raises(TypeError, match=rf"g_max must be an int, got {g_max!r}"):
            GenusTable(Kind.UGW, 3, True, {0: 1}, g_max)
    with pytest.raises(TypeError, match="g_max must be an int"):  # before the sign check
        GenusTable(Kind.UGW, 3, True, {}, -1.0)
    with pytest.raises(TypeError, match="kind must be a Kind, got 'ugw'"):
        GenusTable("ugw", 3, True, {0: 1}, 1)


def test_genus_table_refuses_a_c_that_is_not_an_int():
    # a float c used to fail only later, inside pow_int, as a series coefficient
    for c in (1.5, 0.0, F(3), True):
        with pytest.raises(TypeError, match="c must be an int"):
            GenusTable(Kind.GW, c, True, {0: 1}, 2)


def test_genus_table_refuses_a_primitive_that_is_not_a_bool():
    # c = 0 with primitive = 1 used to pass the GV gate
    for primitive in ("yes", 1, None):
        with pytest.raises(TypeError, match="primitive must be a bool"):
            GenusTable(Kind.GW, 0, primitive, {0: 1}, 2)


def test_genus_table_refuses_a_bool_genus_or_a_value_that_is_not_a_number():
    # {True: True, 0: "1/3"} used to be read as {1: 1, 0: 1/3}, and
    # {2.0: 1, Fraction(1): 2} as {2: 1, 1: 2}: a genus that is not an int is
    # refused even when it equals one
    for genus in (True, False, 2.0, F(1), F(1, 2), "1"):
        with pytest.raises(TypeError, match=rf"genus must be an int, got {re.escape(repr(genus))}"):
            GenusTable(Kind.UGW, 3, True, {genus: 1}, 2)
    for value in (True, False, "1/3", "1", None, [1]):
        with pytest.raises(TypeError, match=r"value at genus 0 must be an int or a Fraction, "
                                            rf"got {re.escape(repr(value))}"):
            GenusTable(Kind.UGW, 3, True, {1: 1, 0: value}, 2)
    with pytest.raises(ValueError, match="float values are not exact"):
        GenusTable(Kind.UGW, 3, True, {0: 1.0}, 2)
    # int genera with int and Fraction values stay accepted
    assert GenusTable(Kind.UGW, 3, True, {0: 2, 1: F(1, 3)}, 2).values == {0: 2, 1: F(1, 3)}


def test_transform_line_class_values():
    ugw = GenusTable(Kind.UGW, 4, True, {0: 1}, 2)
    gw = gw_from_ugw(ugw)
    assert gw.kind is Kind.GW
    assert gw.dense() == {0: F(1), 1: F(-1, 12), 2: F(1, 360)}


def test_transform_exponent_zero_class():
    ugw = GenusTable(Kind.UGW, 0, False, {1: 1}, 3)
    gw = gw_from_ugw(ugw)
    assert gw.dense() == {0: F(0), 1: F(1), 2: F(0), 3: F(0)}


def test_transform_empty_table():
    ugw = GenusTable(Kind.UGW, 2, False, {}, 2)
    assert gw_from_ugw(ugw).dense() == {0: F(0), 1: F(0), 2: F(0)}


def test_transform_kind_checks():
    # both kinds are named by their Kind.value
    gw = GenusTable(Kind.GW, 1, True, {0: 1}, 0)
    with pytest.raises(ValueError, match="^gw_from_ugw expects a ugw table, got gw$"):
        gw_from_ugw(gw)
    with pytest.raises(ValueError, match="^ugw_from_gw expects a gw table, got ugw$"):
        ugw_from_gw(GenusTable(Kind.UGW, 1, True, {0: 1}, 0))


def test_inverse_transform_requires_contiguous_tail():
    gw = GenusTable(Kind.GW, 1, True, {0: 1, 2: 1}, 2)
    with pytest.raises(MissingGenus):
        ugw_from_gw(gw)


# line-class gw tables without genus 0, a middle genus, genus g_max, or any genus
@pytest.mark.parametrize("values, g_max, missing", [
    ({1: F(-1, 12), 2: F(1, 360)}, 2, [0]),
    ({0: 1, 1: F(-1, 12), 3: F(-1, 20160)}, 3, [2]),
    ({0: 1, 1: F(-1, 12), 2: F(1, 360)}, 3, [3]),
    ({}, 2, [0, 1, 2]),
])
@pytest.mark.parametrize("invert", [ugw_from_gw, gv_from_gw])
def test_inverse_transform_refuses_a_table_without_every_genus(monkeypatch, invert, values,
                                                               g_max, missing):
    # an absent genus is not read as zero, which would have gv_from_gw report
    # on an invented table; both refuse before any matrix is built
    def boom(*args, **kwargs):
        raise AssertionError("matrix built for an incomplete table")

    monkeypatch.setattr(wallcross, "_inverse_matrix", boom)
    table = GenusTable(Kind.GW, 4, True, values, g_max)
    named = f"inverse transform needs every genus 0..{g_max}; missing {missing}"
    with pytest.raises(MissingGenus, match=f"^{re.escape(named)}$"):
        invert(table)


def _matrix_product(a, b):
    return [[sum(a[h][j] * b[j][g] for j in range(g, h + 1)) for g in range(h + 1)]
            for h in range(len(a))]


def _identity(n):
    return [[F(int(g == h)) for g in range(h + 1)] for h in range(n)]


def test_inverse_matrix_inverts_the_transform_matrix():
    for c in range(-8, 13):
        for g_max in range(10):
            n, m = wallcross._inverse_matrix(c, g_max), wallcross._transform_matrix(c, g_max)
            assert _matrix_product(n, m) == _identity(g_max + 1), (c, g_max)
    # extreme exponents, and g_max 30 with a row of k = 2h - 2 + c = 0 (the log S row)
    for c, g_max in ((10**6, 8), (-10**6, 8), (2, 30), (0, 30)):
        n, m = wallcross._inverse_matrix(c, g_max), wallcross._transform_matrix(c, g_max)
        assert _matrix_product(n, m) == _identity(g_max + 1), (c, g_max)


def test_inverse_matrix_is_not_computed_from_the_forward_matrix(monkeypatch):
    want = {c: wallcross._inverse_matrix(c, 6) for c in (-3, 0, 2, 5)}
    for name in ("_transform_matrix", "sine_factor", "ugw_from_gw"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    for c, matrix in want.items():
        assert wallcross._inverse_matrix(c, 6) == matrix


def test_both_directions_share_one_apply(monkeypatch):
    # the inverse is a matrix apply like the forward transform: no solve
    applied = []
    real = wallcross._apply

    def recording(matrix, t, kind):
        applied.append((kind, len(matrix)))
        return real(matrix, t, kind)

    monkeypatch.setattr(wallcross, "_apply", recording)
    gw = gw_from_ugw(GenusTable(Kind.UGW, 3, True, {0: 1, 2: F(1, 7)}, 4))
    assert ugw_from_gw(gw).dense() == {0: F(1), 1: F(0), 2: F(1, 7), 3: F(0), 4: F(0)}
    assert applied == [(Kind.GW, 5), (Kind.UGW, 5)]


def test_roundtrip_line_example():
    ugw = GenusTable(Kind.UGW, 4, True, {0: 1}, 3)
    gw = gw_from_ugw(ugw)
    assert gw.value(3) == F(-1, 20160)
    back = ugw_from_gw(gw)
    assert back.dense() == ugw.dense()
    assert back.kind is Kind.UGW
    assert (back.c, back.primitive) == (4, True)


# ---------------------------------------------------------------- properties

small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def table_data(draw):
    g_max = draw(st.integers(min_value=0, max_value=4))
    c = draw(st.integers(min_value=-3, max_value=5))
    primitive = draw(st.booleans())
    values = {g: draw(small_fraction) for g in range(g_max + 1)}
    return g_max, c, primitive, values


@given(table_data())
def test_transform_roundtrip_from_ugw(data):
    g_max, c, primitive, values = data
    t = GenusTable(Kind.UGW, c, primitive, values, g_max)
    back = ugw_from_gw(gw_from_ugw(t))
    assert back.dense() == t.dense()


@given(table_data())
def test_transform_roundtrip_from_gw(data):
    g_max, c, primitive, values = data
    t = GenusTable(Kind.GW, c, primitive, values, g_max)
    back = gw_from_ugw(ugw_from_gw(t))
    assert back.dense() == t.dense()


@given(table_data(), table_data())
def test_transform_is_linear(a, b):
    g_max, c, primitive, va = a
    _, _, _, vb = b
    vb = {g: vb.get(g, F(0)) for g in range(g_max + 1)}
    ta = GenusTable(Kind.UGW, c, primitive, va, g_max)
    tb = GenusTable(Kind.UGW, c, primitive, vb, g_max)
    tsum = GenusTable(
        Kind.UGW, c, primitive,
        {g: ta.value(g) + tb.value(g) for g in range(g_max + 1)}, g_max,
    )
    lhs = gw_from_ugw(tsum).dense()
    fa, fb = gw_from_ugw(ta).dense(), gw_from_ugw(tb).dense()
    assert lhs == {g: fa[g] + fb[g] for g in fa}


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=-3, max_value=5))
def test_transform_is_triangular_with_unit_diagonal(h, c):
    t = GenusTable(Kind.UGW, c, True, {h: 1}, 4)
    gw = gw_from_ugw(t)
    for g in range(h):
        assert gw.value(g) == 0
    assert gw.value(h) == 1
