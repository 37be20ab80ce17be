"""Vertex-value layer: mu constants, the local z-expansion and its two checks."""

import inspect
import re
from fractions import Fraction as F
from math import comb, factorial

import pytest

from sinewall import hodge
from sinewall.hodge import (
    MuValue,
    i_function_expansion,
    mu_g0,
    mu_g1,
    verify_i_ratio,
    verify_mu_consistency,
)
from sinewall.series import log, pow_int, sinc_half


CAP = 3


# ---------------------------------------------------------------- mu values


def test_mu_g0_frozen_values():
    m1 = mu_g0(1)
    assert (m1.a1, m1.a_H, m1.a_c1) == (F(-1, 12), F(-1, 24), F(-1, 24))
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


@pytest.mark.parametrize("call, name", [
    (hodge.mu_values, "g_top"), (mu_g0, "g"), (mu_g1, "g"), (i_function_expansion, "order_u"),
])
@pytest.mark.parametrize("bad", [True, 2.5, F(2), "2"])
def test_vertex_functions_refuse_arguments_that_are_not_ints(call, name, bad):
    # a bool would compute as 0 or 1 and a float fail deep in the series kernel
    with pytest.raises(TypeError, match=rf"^{name} must be an int, got {re.escape(repr(bad))}$"):
        call(bad)


def test_mu_z_coefficient_matches_square_expansion():
    # the z-coefficient equals [u^{2g}] (S^2 - 1) for every genus
    sq = pow_int(sinc_half(14), 2)
    for g in range(1, 7):
        assert mu_g0(g).a1 == sq.coefficient(2 * g)
        assert mu_g1(g) == sq.coefficient(2 * g)


def test_mu_terms_layout():
    # the expansion's {(z, H, c1): coefficient} layout, zero coefficients left out
    assert mu_g0(2).terms() == {(1, 0, 0): F(1, 360), (0, 1, 0): F(19, 2880), (0, 0, 1): F(1, 320)}
    assert MuValue(F(1), F(0), F(2)).terms() == {(1, 0, 0): 1, (0, 0, 1): 2}


def test_mu_value_is_frozen():
    with pytest.raises(Exception):
        mu_g0(1).a1 = F(0)


# ---------------------------------------------------------------- expansion


def _nonneg(terms):
    return {key: q for key, q in terms.items() if key[0] >= 0}


def test_expansion_genus_zero_is_z_minus_h():
    assert i_function_expansion(6)[0] == {(1, 0, 0): 1, (0, 1, 0): -1}


def test_expansion_genus_range():
    assert sorted(i_function_expansion(12)) == [0, 1, 2, 3, 4, 5]
    assert sorted(i_function_expansion(11)) == [0, 1, 2, 3, 4, 5]
    assert sorted(i_function_expansion(10)) == [0, 1, 2, 3, 4]
    assert i_function_expansion(0) == {}
    assert i_function_expansion(-2) == {}


def _all_terms(max_order=40):
    for order in range(1, max_order + 1):
        for g, terms in i_function_expansion(order).items():
            yield order, g, terms


def test_graded_poly_cap_truncation():
    # every class H^h c1^c has total degree h + c <= 3, the threefold's cap,
    # and both powers are nonnegative
    for order, g, terms in _all_terms():
        assert all(h >= 0 and c1 >= 0 and h + c1 <= CAP for _, h, c1 in terms), (order, g)
    # the cap is reached and kept on mixed classes: from genus 3 on every
    # class of degree <= 3 occurs, H c1 and H^2 c1 among them
    all_classes = {(h, c1) for h in range(CAP + 1) for c1 in range(CAP + 1 - h)}
    expn = i_function_expansion(12)
    for g in range(3, 6):
        assert {(h, c1) for _, h, c1 in expn[g]} == all_classes, g


def test_graded_poly_refuses_inexact_coefficients():
    # every coefficient is an exact Fraction, never a float
    for order, g, terms in _all_terms():
        assert all(type(q) is F for q in terms.values()), (order, g)


def test_zlaurent_drops_zero_terms():
    # cancelled coefficients are dropped, so no key maps to zero
    for order, g, terms in _all_terms():
        assert all(q != 0 for q in terms.values()), (order, g)


def test_expansion_nonneg_keys_are_in_mu_layout():
    # the z-nonnegative keys lie among the closed form's
    for order, g, terms in _all_terms():
        if g >= 1:
            assert _nonneg(terms).keys() <= mu_g0(g).terms().keys(), (order, g)


def test_expansion_nonneg_matches_mu():
    expn = i_function_expansion(12)
    for g in range(1, 6):
        assert _nonneg(expn[g]) == mu_g0(g).terms()


def test_expansion_laurent_tail_location():
    expn = i_function_expansion(12)
    # genus 1 sees only the j <= 1 layers, so no negative z-powers yet
    assert min(z for z, _, _ in expn[1]) >= 0
    # from genus 2 on, layers 2 and 3 give z^-1 and z^-2, which [z >= 0] drops
    for g in range(2, 6):
        powers = {z for z, _, _ in expn[g]}
        assert min(powers) == -2
        assert {-2, -1} <= powers


def test_expansion_signatures_take_no_shape():
    # the degree cap is the threefold's, fixed; nothing else shapes the
    # expansion, and the checks read the expansion alone
    assert list(inspect.signature(i_function_expansion).parameters) == ["order_u"]
    for check in (verify_mu_consistency, verify_i_ratio):
        assert list(inspect.signature(check).parameters) == ["expansion"]


def _expansion_oracle(order_u):
    """{g: {(z-power, H-power, c1-power): coefficient}}, term by term.

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
        terms = {}
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
                    key = (e - i, k + i, j - k)
                    terms[key] = terms.get(key, F(0)) + q * comb(j, k) * 3**k * b
        out[g] = {key: x for key, x in terms.items() if x}
    return out


def test_expansion_matches_binomial_oracle_at_every_z_power():
    # pins the negative z-powers too, which no closed form reaches
    for order in range(1, 41):
        assert i_function_expansion(order) == _expansion_oracle(order), order


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
    rep = verify_mu_consistency(i_function_expansion(12))
    assert rep.passed
    assert rep.checked == (1, 2, 3, 4, 5)
    assert rep.first_failure is None


def test_verify_i_ratio_passes():
    rep = verify_i_ratio(i_function_expansion(12))
    assert rep.passed
    assert rep.checked == (1, 2, 3, 4, 5)


def test_verify_vacuous_at_order_zero():
    # verify-identities --order 0 or 1 builds the expansion at order_u 2: genus 0 only
    for expn in (i_function_expansion(2), {}):
        assert verify_mu_consistency(expn).passed
        assert verify_mu_consistency(expn).checked == ()
        assert verify_i_ratio(expn).checked == ()


def _bump(terms, power, delta):
    key = (power, 0, 0)
    out = dict(terms)
    out[key] = out.get(key, 0) + delta
    return out


def test_verify_mu_consistency_locates_corruption():
    expn = i_function_expansion(12)
    expn[3] = _bump(expn[3], 0, F(1, 1000))
    rep = verify_mu_consistency(expn)
    assert not rep.passed
    assert rep.first_failure == 3
    assert rep.detail == "z^0 H^0 c1^0: got 1/1000, want 0"


def test_verify_i_ratio_locates_corruption():
    expn = i_function_expansion(12)
    expn[4] = _bump(expn[4], 1, F(1, 1000))
    rep = verify_i_ratio(expn)
    assert not rep.passed
    assert rep.first_failure == 4
    # named as a term of expansion / z
    a4 = mu_g1(4)
    assert rep.detail == f"z^0 H^0 c1^0: got {a4 + F(1, 1000)}, want {a4}"


def test_corrupted_negative_tail_is_invisible_to_mu_check():
    # the mu comparison reads the z-nonnegative part only; the ratio check
    # reads z^1 and up, so a z^-1 or z^-2 dent escapes both by design
    expn = i_function_expansion(12)
    expn[2] = _bump(expn[2], -2, F(1, 1000))
    expn[3] = _bump(expn[3], -1, F(1, 1000))
    assert verify_mu_consistency(expn).passed
    assert verify_i_ratio(expn).passed


def test_checks_cover_genera_through_half_the_order():
    # verify-identities builds the expansion at 2 (order // 2) + 2, so both
    # checks cover genera 1..order // 2, the bound inclusive
    for order in range(15):
        expn = i_function_expansion(2 * (order // 2) + 2)
        for check in (verify_mu_consistency, verify_i_ratio):
            assert check(expn) == (True, tuple(range(1, order // 2 + 1)), None, "")
