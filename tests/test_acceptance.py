"""Acceptance gate: one test per headline criterion, all exact arithmetic.

Each test prints a single PASS line once its assertions hold, so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist.  Nothing
here uses tolerances; every comparison is Fraction equality.
"""

import random
import time
from fractions import Fraction as F

from sinewall.gv import gv_from_gw, gw_from_gv
from sinewall.hodge import (
    i_function_expansion,
    mu_g0,
    mu_g1,
    verify_i_ratio,
    verify_mu_consistency,
)
from sinewall.partitions import enumerate_threefold_partitions
from sinewall.series import USeries, exp, inv, log, pow_int, sinc_half
from sinewall.wallcross import (
    GenusTable,
    Kind,
    VertexData,
    gw_from_ugw,
    ugw_from_gw,
    verify_grids,
)


def report(line):
    print(line, flush=True)


def test_criterion_1_raw_sum_equals_sine_power():
    # g0 in 0..3, n in 0..4, c in -2..6, coefficientwise through u^10,
    # exact equality, under 10 seconds
    t0 = time.perf_counter()
    rep, _ = verify_grids(10)
    elapsed = time.perf_counter() - t0
    assert rep.passed, rep.summary()
    assert len(rep.cells) == 4 * 5 * 9
    assert elapsed < 10.0
    report(f"PASS criterion 1: raw wall-crossing sum = sine power on all "
           f"{len(rep.cells)} cells through u^10, exact ({elapsed:.2f}s)")


def test_criterion_2_eq_sum_closed_form():
    # m1 in -6..0, m2 in -6..12, through u^12, exact, under 5 seconds
    t0 = time.perf_counter()
    _, rep = verify_grids(10)  # the eq grid reaches two orders past the raw grid
    elapsed = time.perf_counter() - t0
    assert rep.passed, rep.summary()
    assert len(rep.cells) == 7 * 19
    assert elapsed < 5.0
    report(f"PASS criterion 2: bracket double sum = (1+t1)^m1 exp(m2 log S) on "
           f"{len(rep.cells)} cells through u^12, exact ({elapsed:.2f}s)")


def test_criterion_3_expansion_consistency():
    # z-nonnegative truncation of the local expansion equals the closed-form
    # vertex values for g <= 5 at the threefold's degree cap 3, under 5 seconds
    t0 = time.perf_counter()
    expn = i_function_expansion(12)
    mu_rep = verify_mu_consistency(expn)
    ratio_rep = verify_i_ratio(expn)
    elapsed = time.perf_counter() - t0
    genera = [f"genus {g}" for g in (1, 2, 3, 4, 5)]
    assert mu_rep.passed, mu_rep.summary()
    assert [cell.key for cell in mu_rep.cells] == genera
    assert ratio_rep.passed, ratio_rep.summary()
    assert [cell.key for cell in ratio_rep.cells] == genera
    assert elapsed < 5.0
    report(f"PASS criterion 3: local expansion matches vertex closed forms and "
           f"marked-point constants for g <= 5, exact ({elapsed:.2f}s)")


def test_criterion_4_line_class_roundtrip():
    t0 = time.perf_counter()
    gv = GenusTable(Kind.GV, 4, True, {0: 1}, 3)
    gw = gw_from_gv(gv)
    assert gw.dense() == {0: F(1), 1: F(-1, 12), 2: F(1, 360), 3: F(-1, 20160)}
    back = gv_from_gw(gw)
    assert back.integral
    assert back.table.dense() == gv.dense()
    assert back.largest_nonzero_genus == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"PASS criterion 4: line-class table transforms and inverts exactly, "
           f"integrality pass, top genus 0 ({elapsed*1000:.0f}ms)")


def test_criterion_5_mu_constants_against_series_oracle():
    # oracle built strictly from sinc_half and series ops, no vertex code
    s = sinc_half(8)
    square = s * s
    square_log = square * log(s)
    assert mu_g1(1) == square.coefficient(2) == F(-1, 12)
    assert mu_g1(2) == square.coefficient(4) == F(1, 360)
    m = mu_g0(1)
    a, b = square.coefficient(2), square_log.coefficient(2)
    assert (m.a1, m.a_H, m.a_c1) == (a, -a + 3 * b, b) == (F(-1, 12), F(-1, 24), F(-1, 24))
    report("PASS criterion 5: mu constants -1/12, 1/360, (-1/12, -1/24, -1/24) "
           "match the independent series oracle exactly")


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260819)

    def rand_series(valuation, length):
        return USeries(valuation, [F(rng.randint(-6, 6), rng.randint(1, 9))
                                   for _ in range(length)])

    # series ring axioms on seeded random triples
    for _ in range(40):
        f, g, h = (rand_series(rng.randint(-2, 2), rng.randint(1, 6)) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert (f * (g + h)).agrees(f * g + f * h)

    # exp/log/pow homomorphisms
    for _ in range(25):
        a = rand_series(rng.randint(1, 2), rng.randint(1, 5))
        b = rand_series(rng.randint(1, 2), rng.randint(1, 5))
        assert exp(a + b) == exp(a) * exp(b)
        assert log(exp(a)) == a
        u = USeries(0, [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 7))
                                 for _ in range(rng.randint(0, 4))])
        assert exp(log(u)) == u
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        w = rand_series(0, rng.randint(1, 5))
        if w.coefficient(0):
            assert pow_int(w, k1) * pow_int(w, k2) == pow_int(w, k1 + k2)
            assert pow_int(w, -2) == inv(pow_int(w, 2))

    # transform roundtrips on seeded random tables
    for _ in range(30):
        g_max = rng.randint(0, 5)
        c = rng.randint(-3, 6)
        values = {g: F(rng.randint(-20, 20), rng.randint(1, 12))
                  for g in range(g_max + 1)}
        t = GenusTable(Kind.UGW, c, bool(rng.getrandbits(1)), values, g_max)
        assert ugw_from_gw(gw_from_ugw(t)).dense() == t.dense()
        t2 = GenusTable(Kind.GW, c, True, values, g_max)
        assert gw_from_ugw(ugw_from_gw(t2)).dense() == t2.dense()

    # partition enumeration vs exhaustive brute force, g <= 6, n <= 4
    def partitions_of(total):
        out = set()

        def rec(rem, mx, acc):
            if rem == 0:
                out.add(tuple(acc))
                return
            for p in range(min(rem, mx), 0, -1):
                acc.append(p)
                rec(rem - p, p, acc)
                acc.pop()

        rec(total, total, [])
        return out if total else {()}

    for g in range(7):
        for n in range(5):
            oracle = set()
            for g0 in range(g + 1):
                for s1 in range(g - g0 + 1):
                    for p1 in partitions_of(s1):
                        if len(p1) > n:
                            continue
                        for p2 in partitions_of(g - g0 - s1):
                            if g0 == g and not p1 and not p2:
                                continue
                            oracle.add((g0, p1, p2))
            got = enumerate_threefold_partitions(g, n)
            assert {(p.g0, p.g1, p.g2) for p in got} == oracle

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"PASS criterion 6: ring axioms, exp/log/pow homomorphisms, transform "
           f"roundtrips, partition brute force all exact, fixed seed ({elapsed:.2f}s)")


def test_criterion_7_negative_controls():
    delta = F(1, 1000)
    detected = []

    # each vertex coefficient family, bumped at one genus: the raw grid reads
    # all three, the eq grid only Psi and Delta (mu0_psi, mu0_div)
    base = VertexData.standard(5)
    for field, genus, eq_fails in (("mu1", 1, False), ("mu0_psi", 1, True),
                                   ("mu0_div", 2, True)):
        bad = base.perturbed(field, genus, delta)
        raw, eq = verify_grids(8, vertex=bad)
        assert not raw.passed, f"{field} perturbation went unnoticed"
        assert eq.passed is not eq_fails, f"{field} perturbation: eq grid passed={eq.passed}"
        detected.append(f"{field}@{genus}")

    # a GW value, bumped: integrality check flags the exact genus
    gw = GenusTable(Kind.GW, 4, True,
                    {0: 1, 1: F(-1, 12), 2: F(1, 360) + delta}, 2)
    rep = gv_from_gw(gw)
    assert not rep.integral
    assert rep.non_integral_genera == (2,)
    detected.append("gw@2")

    # a local-expansion coefficient, bumped: both expansion checks locate it
    expn = i_function_expansion(12)
    expn[3] = {**expn[3], (0, 0, 0): expn[3].get((0, 0, 0), 0) + delta}
    mu_rep = verify_mu_consistency(expn)
    assert not mu_rep.passed and mu_rep.first_failure.key == "genus 3"
    detected.append("expansion-z0@3")

    expn2 = i_function_expansion(12)
    expn2[4] = {**expn2[4], (1, 0, 0): expn2[4].get((1, 0, 0), 0) + delta}
    ratio_rep = verify_i_ratio(expn2)
    assert not ratio_rep.passed and ratio_rep.first_failure.key == "genus 4"
    detected.append("expansion-z1@4")

    report(f"PASS criterion 7: every 1/1000 perturbation detected "
           f"({', '.join(detected)})")
