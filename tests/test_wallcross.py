"""Transform layer: sine multipliers, the raw combinatorial sum, genus tables."""

import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from sinewall import wallcross
from sinewall.partitions import enumerate_threefold_partitions, multinomial, multiplicities
from sinewall.series import USeries, exp, inv, log, pow_int, sinc_half
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
    verify_eq_sum,
    verify_raw_equals_closed,
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
    # m2 = 3(2g0 - 2) + c, for the factor table the raw cells use (times the
    # divisor weight they evaluate at) and for the oracle's stepwise stripping
    for g0 in range(4):
        for n in range(4):
            factors = wallcross._bracket_factors(g0, n, 6)
            for n_psi in range(4):
                for n_div in range(3):
                    for c in (-2, 0, 1, 4):
                        m1 = -(2 * g0 - 2 + n)
                        m2 = 3 * (2 * g0 - 2) + c
                        want = _falling_factorial(m1 - n_div, n_psi) * m2**n_div
                        assert factors[n_psi + n_div][n_psi] * m2**n_div == want
                        assert stripped_bracket(g0, n, n_psi, n_div, c) == want


def test_reduce_bracket_base_case():
    # no psi insertion stripped leaves the base bracket, normalized to 1
    assert wallcross._bracket_factors(0, 0, 0) == [[1]]
    assert all(row[0] == 1 for row in wallcross._bracket_factors(3, 2, 5))
    assert [len(row) for row in wallcross._bracket_factors(1, 1, 3)] == [1, 2, 3, 4]
    assert stripped_bracket(0, 0, 0, 0, 5) == 1
    assert stripped_bracket(3, 2, 0, 0, -1) == 1


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


def test_eq_sum_basis_cache_across_orders(monkeypatch):
    # an order seen before reuses its basis; a new order builds its own
    monkeypatch.setattr(wallcross, "_EQ_BASIS", {})
    for order in (9, 13, 9):
        s = sinc_half(order)
        for m1, m2 in ((-2, 3), (0, -4), (1, 5), (-3, 0)):
            got = eq_sum(m1, m2, order)
            assert got == pow_int(s, 2 * m1 + m2)
            assert eq_sum(m1, m2, order) == got
    assert sorted(wallcross._EQ_BASIS) == [9, 13]


def test_eq_sum_rational_arguments():
    # the integer-numerator combination must clear the denominators of m1, m2
    order = 11
    s = sinc_half(order)
    s2, ls = s * s, log(s)
    for m1, m2 in ((F(1, 2), F(-7, 3)), (-3, F(5, 4)), (F(-7, 3), 2), (F(2, 9), F(-1, 6))):
        want = exp(ls.scale(m2)) * (pow_int(s2, m1) if isinstance(m1, int)
                                    else exp(log(s2).scale(m1)))
        assert eq_sum(m1, m2, order) == want


def _raise_if_called(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called by an independent route")
    return refuse


def test_eq_sum_uses_no_closed_form_kernel(monkeypatch):
    monkeypatch.setattr(wallcross, "_EQ_BASIS", {})
    want = {m: pow_int(sinc_half(13), int(2 * m[0] + m[1])) for m in ((-2, 3), (F(1, 2), 1))}
    for name in ("pow_int", "exp"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    assert eq_sum(-2, 3, 13) == want[(-2, 3)]  # cold: builds the basis
    for name in ("sinc_half", "log"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    for m, series in want.items():  # warm: touches no series kernel at all
        assert eq_sum(*m, 13) == series


def test_verify_eq_sum_grid():
    rep = verify_eq_sum(range(-2, 1), range(-2, 3), 8)
    assert rep.passed
    assert len(rep.cells) == 3 * 5
    assert rep.first_failure is None
    assert "pass" in rep.summary()


def test_eq_grid_failure_report_matches_series_comparison(monkeypatch):
    # a negative control for the integer comparison: one numerator of the
    # cached t2^1 shifted; the grid's failing cells, their order and their
    # details equal those of comparing eq_sum with the closed series
    order, internal = 8, 9
    monkeypatch.setattr(wallcross, "_EQ_BASIS", {})
    rows, den = wallcross._eq_basis(internal)
    (k, b), *rest = rows[1][0]  # a2 = 1, a1 = 0
    bumped = rows[:1] + ((((k, b + 1), *rest),) + rows[1][1:],) + rows[2:]
    wallcross._EQ_BASIS[internal] = (bumped, den)
    m1s, m2s = range(-3, 1), range(-2, 4)
    rep = verify_eq_sum(m1s, m2s, order)
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
    # exponent, to zero or away from it, fails with the series' first mismatch
    want = [6, 0, -3, 0, 5, 2, 0]
    assert wallcross._cell("k", [x * 7 for x in want], 84, want, 12, 6).passed
    for e in range(len(want)):
        for value in (0, want[e] + 1):
            if value == want[e]:
                continue
            got = want[:e] + [value] + want[e + 1:]
            cell = wallcross._cell("k", got, 12, want, 12, 6)
            assert not cell.passed
            assert cell.detail == f"u^{e}: got {F(value, 12)}, want {F(want[e], 12)}"


def test_default_grids_build_each_closed_side_once(monkeypatch):
    # the raw grid builds S^k once per exponent k = 2 g0 - 2 + c, -4..10; the
    # eq grid one power per m1 and one exponential per m2; passing cells are
    # compared in integers, so neither eq_sum nor _first_mismatch runs
    exponents, powers, exps = [], [], []
    sine, power, expo = wallcross.sine_factor, wallcross.pow_int, wallcross.exp

    def counting_sine(g, c, order):
        exponents.append(2 * g - 2 + c)
        return sine(g, c, order)

    def counting_power(f, k):
        powers.append(k)
        return power(f, k)

    def counting_exp(f):
        exps.append(f)
        return expo(f)

    monkeypatch.setattr(wallcross, "sine_factor", counting_sine)
    for name in ("eq_sum", "_first_mismatch"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    assert verify_raw_equals_closed().passed
    assert sorted(exponents) == list(range(-4, 11))
    monkeypatch.setattr(wallcross, "pow_int", counting_power)
    monkeypatch.setattr(wallcross, "exp", counting_exp)
    assert verify_eq_sum().passed
    assert sorted(powers) == list(range(-6, 1))
    assert len(exps) == 19


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


def test_raw_sum_validation():
    with pytest.raises(ValueError):
        correction_raw_sum(-1, 0, 0, 6)
    with pytest.raises(ValueError):
        correction_raw_sum(0, -1, 0, 6)
    assert correction_raw_sum(1, 0, 3, 0) == USeries.zero(0)


def test_verify_raw_equals_closed_small_grid():
    rep = verify_raw_equals_closed(1, 2, range(-1, 3), 8)
    assert rep.passed
    assert len(rep.cells) == 2 * 3 * 4
    assert all(cell.passed for cell in rep.cells)


def test_raw_sum_detects_mu1_perturbation():
    vertex = VertexData.standard(4).perturbed("mu1", 1, F(1, 1000))
    # marked-point multipliers never enter unmarked sums
    assert correction_raw_sum(0, 0, 3, 9, vertex) == sine_factor(0, 3, 9)
    assert correction_raw_sum(0, 1, 3, 9, vertex) != sine_factor(0, 3, 9)
    rep = verify_raw_equals_closed(1, 2, range(0, 3), 8, vertex=vertex)
    assert not rep.passed
    assert rep.first_failure.key[1] >= 1
    assert "u^" in rep.first_failure.detail


def test_raw_sum_detects_mu0_psi_perturbation():
    vertex = VertexData.standard(4).perturbed("mu0_psi", 1, F(1, 1000))
    assert correction_raw_sum(0, 0, 3, 9, vertex) != sine_factor(0, 3, 9)


def test_raw_sum_detects_mu0_div_perturbation():
    vertex = VertexData.standard(5).perturbed("mu0_div", 2, F(1, 1000))
    rep = verify_raw_equals_closed(1, 1, range(0, 2), 10, vertex=vertex)
    assert not rep.passed


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
            weight = F(comb(n, p.k1) * multinomial(p.k1, multiplicities(p.g1)))
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


def _count_table_builds(monkeypatch, calls):
    build = wallcross._raw_tables

    def counting(vertex, order):
        calls.append((vertex, order))
        return build(vertex, order)

    monkeypatch.setattr(wallcross, "_raw_tables", counting)


def test_grid_builds_standard_vertex_once(monkeypatch):
    # and the vertex-only tables of the raw sum once, at the grid's order
    vertex_calls, table_calls = [], []
    build = VertexData.standard
    _count_table_builds(monkeypatch, table_calls)

    def counting(cls, g_top):
        vertex_calls.append(g_top)
        return build(g_top)

    monkeypatch.setattr(VertexData, "standard", classmethod(counting))
    rep = verify_raw_equals_closed(1, 2, range(-1, 3), 8)
    assert rep.passed
    assert vertex_calls == [4]
    assert len(table_calls) == 1 and table_calls[0][1] == 9


def test_grid_uses_supplied_vertex_as_given(monkeypatch):
    vertex = VertexData.standard(4)
    seen = []

    def no_build(cls, g_top):
        raise AssertionError("standard vertex data rebuilt despite a supplied table")

    _count_table_builds(monkeypatch, seen)
    monkeypatch.setattr(VertexData, "standard", classmethod(no_build))
    rep = verify_raw_equals_closed(1, 1, range(0, 2), 8, vertex=vertex)
    assert rep.passed
    assert len(rep.cells) == 2 * 2 * 2
    assert len(seen) == 1 and seen[0][0] is vertex


def numerator_series(nums, den):
    """The series sum_i (nums[i] / den) u^i of a grid cell's integer seam."""
    return USeries(0, [F(x, den) for x in nums])


def test_grid_cells_match_standalone_raw_sum_on_random_vertex(monkeypatch):
    # each cell the grid evaluates from its per-(g0, n) polynomial equals
    # the standalone call and the full-listing oracle, and its verdict follows
    got = {}
    combine = wallcross._raw_cells

    def recording(tables, marked, g0, n, cs, order):
        cells = combine(tables, marked, g0, n, cs, order)
        for c, nums in zip(cs, cells):
            got[(g0, n, c)] = numerator_series(nums, tables[2])
        return cells

    monkeypatch.setattr(wallcross, "_raw_cells", recording)
    rng = random.Random(518)
    for _ in range(2):
        vertex = random_vertex(rng, 4)
        got.clear()
        rep = verify_raw_equals_closed(2, 3, (-1, 2, 5), 8, vertex=vertex)
        grid = dict(got)  # the standalone calls below record too
        assert [cell.key for cell in rep.cells] == list(grid)
        for cell in rep.cells:
            series = grid[cell.key]
            assert series == correction_raw_sum(*cell.key, 9, vertex)
            assert series == raw_sum_oracle(*cell.key, 9, vertex)
            assert cell.passed == (series == sine_factor(cell.key[0], cell.key[2], 9))


def test_grid_failure_reports_unchanged_under_perturbation():
    # criterion 7's perturbations: first failing key, its detail and the
    # number of failing cells
    base = VertexData.standard(4)
    expected = {
        ("mu1", 1): ((0, 1, 0), "u^2: got 253/3000, want 1/12", 12),
        ("mu0_psi", 1): ((0, 0, 0), "u^2: got 32/375, want 1/12", 17),
        ("mu0_div", 2): ((0, 0, 0), "u^4: got -11/6000, want 1/240", 15),
    }
    for (field, genus), (key, detail, failing) in expected.items():
        rep = verify_raw_equals_closed(1, 2, range(0, 3), 8,
                                       vertex=base.perturbed(field, genus, F(1, 1000)))
        assert (rep.first_failure.key, rep.first_failure.detail) == (key, detail)
        assert sum(not cell.passed for cell in rep.cells) == failing


def test_raw_route_uses_no_closed_form_kernel(monkeypatch):
    vertex = VertexData.standard(6)
    want = {key: sine_factor(key[0], key[2], 13) for key in ((0, 0, 4), (2, 3, -1))}
    for name in ("pow_int", "exp", "log", "sinc_half", "sine_factor"):
        monkeypatch.setattr(wallcross, name, _raise_if_called(name))
    tables = wallcross._raw_tables(vertex, 13)
    for (g0, n, c), series in want.items():
        assert correction_raw_sum(g0, n, c, 13) == series
        assert correction_raw_sum(g0, n, c, 13, vertex) == series
        marked = wallcross._marked_sums(tables, n)
        (nums,) = wallcross._raw_cells(tables, marked, g0, n, (c,), 13)
        assert numerator_series(nums, tables[2]) == series


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
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {F(1, 2): 1}, 2)
    with pytest.raises(ValueError):
        GenusTable(Kind.GW, 0, True, {0: 0.5}, 2)


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
    gw = GenusTable(Kind.GW, 1, True, {0: 1}, 0)
    with pytest.raises(ValueError):
        gw_from_ugw(gw)
    with pytest.raises(ValueError):
        ugw_from_gw(GenusTable(Kind.UGW, 1, True, {0: 1}, 0))


def test_inverse_transform_requires_contiguous_tail():
    gw = GenusTable(Kind.GW, 1, True, {0: 1, 2: 1}, 2)
    with pytest.raises(MissingGenus):
        ugw_from_gw(gw)


def test_inverse_transform_from_min_occupied_genus():
    # genera below the least occupied one are taken as zero
    gw = GenusTable(Kind.GW, 1, True, {2: 5, 3: 7}, 3)
    u = ugw_from_gw(gw)
    assert u.value(0) == 0 and u.value(1) == 0
    assert u.value(2) == 5
    assert u.value(3) == F(61, 8)


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
