"""Vertex-value layer: graded polynomials, Laurent tails, mu constants."""

import inspect
from fractions import Fraction as F
from math import comb, factorial

import pytest

from sinewall import hodge
from sinewall.hodge import (
    GradedPoly,
    MuValue,
    ZLaurent,
    i_function_expansion,
    mu_g0,
    mu_g1,
    verify_i_ratio,
    verify_mu_consistency,
)
from sinewall.series import log, pow_int, sinc_half


CAP = 3
H = GradedPoly({(1, 0): 1}, CAP)
C1 = GradedPoly({(0, 1): 1}, CAP)
ONE = GradedPoly({(0, 0): 1}, CAP)
MINUS_H = GradedPoly({(1, 0): -1}, CAP)


# ---------------------------------------------------------------- graded polys


def test_graded_poly_basics():
    p = GradedPoly({(1, 0): 2, (0, 1): 1}, CAP)
    assert p == H + H + C1
    assert p.coefficient(1, 0) == 2
    assert p.coefficient(0, 1) == 1
    assert p.coefficient(0, 0) == 0
    assert bool(p)
    assert not GradedPoly.zero(CAP)
    assert p + GradedPoly({(1, 0): -2, (0, 1): -1}, CAP) == GradedPoly.zero(CAP)


def test_graded_poly_cap_truncation():
    # the cap keeps total degree, mixing both variables
    assert GradedPoly({(4, 0): 1, (2, 2): 5, (0, 4): 1}, CAP) == GradedPoly.zero(CAP)
    kept = GradedPoly({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}, CAP)
    assert sorted(kept.terms) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert GradedPoly({(2, 2): 1, (1, 1): 7}, CAP) == GradedPoly({(1, 1): 7}, CAP)


def test_graded_poly_addition_sampled():
    xs = [ONE, H, C1, H + C1, GradedPoly({(1, 0): 2, (0, 1): -1}, CAP),
          GradedPoly({(2, 0): 1, (0, 1): 1}, CAP), GradedPoly.zero(CAP)]
    for a in xs:
        assert a + GradedPoly.zero(CAP) == a
        for b in xs:
            assert a + b == b + a
            for c in xs:
                assert (a + b) + c == a + (b + c)


def test_graded_poly_mixed_caps_rejected():
    with pytest.raises(ValueError):
        H + GradedPoly({(1, 0): 1}, 4)


def test_graded_poly_scalar():
    assert GradedPoly.scalar(F(5), CAP).coefficient(0, 0) == 5
    assert GradedPoly.scalar(F(5), CAP) == GradedPoly({(0, 0): 5}, CAP)
    assert not GradedPoly.scalar(0, CAP)


def test_graded_poly_refuses_inexact_coefficients():
    # a float would be stored as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    for bad in (0.1, 2.0, "1/2", None):
        with pytest.raises(TypeError):
            GradedPoly({(0, 0): bad}, CAP)
        with pytest.raises(TypeError):
            GradedPoly.scalar(bad, CAP)
    assert GradedPoly({(1, 0): 3, (0, 1): F(1, 2)}, CAP).terms == {(1, 0): 3, (0, 1): F(1, 2)}


# ---------------------------------------------------------------- zlaurent


def test_zlaurent_construction_and_access():
    zl = ZLaurent({1: ONE, 0: MINUS_H, -2: C1}, CAP)
    assert zl.z_min == -2
    assert zl.z_max == 1
    assert zl.coefficient(1) == ONE
    assert zl.coefficient(-1) == GradedPoly.zero(CAP)
    assert zl.coefficient(5) == GradedPoly.zero(CAP)
    assert not zl.is_zero()
    assert ZLaurent({}, CAP).is_zero()


def test_zlaurent_shift_and_nonneg():
    zl = ZLaurent({1: ONE, 0: MINUS_H, -2: C1}, CAP)
    assert zl.shift(2).z_min == 0
    assert zl.shift(-1).coefficient(0) == ONE
    assert zl.nonneg() == ZLaurent({1: ONE, 0: MINUS_H}, CAP)
    assert zl.shift(3).nonneg() == zl.shift(3)


def test_zlaurent_drops_zero_terms():
    zl = ZLaurent({2: GradedPoly.zero(CAP), 0: ONE}, CAP)
    assert zl.z_max == 0
    assert zl == ZLaurent({0: ONE}, CAP)


# ---------------------------------------------------------------- mu values


def test_mu_g0_frozen_values():
    m1 = mu_g0(1)
    assert (m1.a1, m1.a_H, m1.a_c1, m1.scalar) == (F(-1, 12), F(-1, 24), F(-1, 24), F(0))
    m2 = mu_g0(2)
    assert (m2.a1, m2.a_H, m2.a_c1) == (F(1, 360), F(19, 2880), F(1, 320))
    m3 = mu_g0(3)
    assert (m3.a1, m3.a_H, m3.a_c1) == (F(-1, 20160), F(-11, 48384), F(-67, 725760))


def test_mu_g1_frozen_values():
    assert mu_g1(1) == F(-1, 12)
    assert mu_g1(2) == F(1, 360)
    assert mu_g1(3) == F(-1, 20160)


def test_mu_requires_positive_genus():
    with pytest.raises(ValueError):
        mu_g0(0)
    with pytest.raises(ValueError):
        mu_g1(0)


def test_mu_z_coefficient_matches_square_expansion():
    # the z-coefficient equals [u^{2g}] (S^2 - 1) for every genus
    sq = pow_int(sinc_half(14), 2)
    for g in range(1, 7):
        assert mu_g0(g).a1 == sq.coefficient(2 * g)
        assert mu_g1(g) == sq.coefficient(2 * g)
        assert mu_g0(g).scalar == 0


def test_mu_as_zlaurent_layout():
    zl = mu_g0(2).as_zlaurent(CAP)
    assert zl.z_min == 0
    assert zl.z_max == 1
    assert zl.coefficient(1) == GradedPoly.scalar(F(1, 360), CAP)
    assert zl.coefficient(0) == GradedPoly({(1, 0): F(19, 2880), (0, 1): F(1, 320)}, CAP)


def test_mu_value_is_frozen():
    with pytest.raises(Exception):
        mu_g0(1).a1 = F(0)


# ---------------------------------------------------------------- expansion


def test_expansion_genus_zero_is_z_minus_h():
    expn = i_function_expansion(6)
    assert expn[0] == ZLaurent({1: ONE, 0: MINUS_H}, CAP)


def test_expansion_genus_range():
    assert sorted(i_function_expansion(12)) == [0, 1, 2, 3, 4, 5]
    assert sorted(i_function_expansion(11)) == [0, 1, 2, 3, 4, 5]
    assert sorted(i_function_expansion(10)) == [0, 1, 2, 3, 4]
    assert i_function_expansion(0) == {}
    assert i_function_expansion(-2) == {}


def test_expansion_nonneg_matches_mu():
    expn = i_function_expansion(12)
    for g in range(1, 6):
        assert expn[g].nonneg() == mu_g0(g).as_zlaurent(CAP)


def test_expansion_laurent_tail_location():
    expn = i_function_expansion(12)
    # genus 1 sees only the j <= 1 layers, so no negative z-powers yet
    assert expn[1].z_min >= 0
    # from genus 2 on, layers 2 and 3 give z^-1 and z^-2, which [z >= 0] drops
    for g in range(2, 6):
        assert expn[g].z_min == -2
        assert expn[g].coefficient(-2) and expn[g].coefficient(-1)


def test_expansion_signatures_take_no_shape():
    # the degree cap is the threefold's, fixed; nothing else shapes the expansion
    assert list(inspect.signature(i_function_expansion).parameters) == ["order_u"]
    for check in (verify_mu_consistency, verify_i_ratio):
        assert list(inspect.signature(check).parameters) == ["order_u", "expansion"]
    assert all(zl.cap == CAP for zl in i_function_expansion(12).values())


def _expansion_oracle(order_u):
    """{g: {z-power: {(H-power, c1-power): coefficient}}}, term by term.

    z'^(1-j) carries S^2 (log S)^j (3H + c1)^j / j! for 0 <= j <= 3, the
    degree cap, and z' = z - H is expanded with math.comb: (z - H)^e is
    sum_{i <= e} C(e, i) (-H)^i z^(e-i) for e >= 0 and
    sum_i C(-e + i - 1, i) H^i z^(e-i) for e < 0.
    """
    s = sinc_half(order_u)
    ls = log(s)
    layers = [s * s]  # S^2 (log S)^j by repeated products
    for _ in range(CAP):
        layers.append(layers[-1] * ls)
    out = {}
    for g in range((order_u - 1) // 2 + 1):
        zterms = {}
        for j, layer in enumerate(layers):
            q = layer.coefficient(2 * g) / factorial(j)
            e = 1 - j
            if e >= 0:
                binom = [(i, comb(e, i) * (-1) ** i) for i in range(e + 1)]
            else:
                binom = [(i, comb(-e + i - 1, i)) for i in range(CAP - j + 1)]
            for k in range(j + 1):  # (3H + c1)^j = sum_k C(j, k) 3^k H^k c1^(j-k)
                for i, b in binom:
                    if j + i > CAP:
                        continue
                    key = (k + i, j - k)
                    by_z = zterms.setdefault(e - i, {})
                    by_z[key] = by_z.get(key, F(0)) + q * comb(j, k) * 3**k * b
        out[g] = {p: live for p, terms in zterms.items()
                  if (live := {key: x for key, x in terms.items() if x})}
    return out


def test_expansion_matches_binomial_oracle_at_every_z_power():
    # pins the negative z-powers too, which no closed form reaches
    for order in range(1, 41):
        got = i_function_expansion(order)
        want = _expansion_oracle(order)
        assert sorted(got) == sorted(want)
        for g, zl in got.items():
            powers = set(want[g]) | set(range(zl.z_min, zl.z_max + 1))
            for p in powers:
                assert zl.coefficient(p).terms == want[g].get(p, {}), (order, g, p)


def test_expansion_runs_without_closed_form_vertex(monkeypatch):
    # the expansion is the independent route to mu_g0 / mu_g1, so it may not call them
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form vertex value used by the expansion")

    want = i_function_expansion(12)
    for name in ("mu_values", "mu_g0", "mu_g1"):
        monkeypatch.setattr(hodge, name, refuse)
    assert i_function_expansion(12) == want
    # nor a power kernel: layer j is layer j-1 times log S / j
    assert not hasattr(hodge, "pow_int") and not hasattr(hodge, "exp")


# ---------------------------------------------------------------- verification


def test_verify_mu_consistency_passes():
    rep = verify_mu_consistency(10)
    assert rep.passed
    assert rep.checked == (1, 2, 3, 4, 5)
    assert rep.first_failure is None


def test_verify_i_ratio_passes():
    rep = verify_i_ratio(10)
    assert rep.passed
    assert rep.checked == (1, 2, 3, 4, 5)


def test_verify_vacuous_at_order_zero():
    assert verify_mu_consistency(0).passed
    assert verify_mu_consistency(0).checked == ()
    assert verify_i_ratio(1).checked == ()


def _corrupt(zl, power, delta):
    terms = {p: zl.coefficient(p) for p in range(zl.z_min, zl.z_max + 1)}
    terms[power] = terms.get(power, GradedPoly.zero(zl.cap)) + GradedPoly.scalar(
        delta, zl.cap
    )
    return ZLaurent(terms, zl.cap)


def test_verify_mu_consistency_locates_corruption():
    expn = i_function_expansion(12)
    expn[3] = _corrupt(expn[3], 0, F(1, 1000))
    rep = verify_mu_consistency(12, expansion=expn)
    assert not rep.passed
    assert rep.first_failure == 3
    assert "genus 3" in rep.detail


def test_verify_i_ratio_locates_corruption():
    expn = i_function_expansion(12)
    expn[4] = _corrupt(expn[4], 1, F(1, 1000))
    rep = verify_i_ratio(12, expansion=expn)
    assert not rep.passed
    assert rep.first_failure == 4


def test_corrupted_negative_tail_is_invisible_to_mu_check():
    # the mu comparison reads the z-nonnegative part only; the ratio check
    # reads z^1 and up, so a z^{-2} dent escapes both by design
    expn = i_function_expansion(12)
    expn[2] = _corrupt(expn[2], -2, F(1, 1000))
    assert verify_mu_consistency(12, expansion=expn).passed
    assert verify_i_ratio(12, expansion=expn).passed


def test_supplied_expansion_gives_the_same_report():
    # verify-identities builds one expansion and hands it to both checks
    for order in range(15):
        expn = i_function_expansion(2 * (order // 2) + 2)
        assert verify_mu_consistency(order, expansion=expn) == verify_mu_consistency(order)
        assert verify_i_ratio(order, expansion=expn) == verify_i_ratio(order)
