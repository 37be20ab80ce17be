r"""Vertex contributions mu_{g,0}, mu_{g,1} and the local obstruction expansion.

Everything here expands one master identity,

    z' * S(u)^((2 z' + 3 H + c1) / z') = z' * S^2 * exp((3H + c1) * log S / z'),

a Laurent series in z' whose coefficients are polynomials in the two
commuting degree-1 classes H and c1 of the threefold, so every class of
total degree above 3 vanishes.  Substituting z' = z - H and keeping the
z-nonnegative part of the u^{2g} coefficient yields the vertex value

    mu_{g,0}(z) = a_g * (z - H) + b_g * (3H + c1),
    a_g = [u^{2g}] S^2,   b_g = [u^{2g}] (S^2 * log S),

and the companion constant mu_{g,1} = [u^{2g}] (S^2 - 1) = a_g, read off
`mu_g0`.

The closed forms are authoritative.  They come from one build
(`mu_values`) of S, S^2 and S^2 log S, kept at the largest top genus, so
both identity grids (whose t1 = S^2 - 1 and t2 = S^2 log S are these
values), the two checks and `mu --g-max` each read one build.

`i_function_expansion` re-derives them from the exponential identity, so
the two routes can be checked against each other.  Each genus of the
expansion is one dict {(z-power, H-power, c1-power): Fraction}, zero
coefficients left out, the layout `MuValue.terms` gives too:
`verify_mu_consistency` compares its z-nonnegative terms with mu_{g,0}, and
`verify_i_ratio` checks that dividing it by z leaves the constant mu_{g,1}
as its only z-nonnegative term.  Both checks take the expansion alone, so
one expansion serves both.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb

from ._record import Record
from .series import _int_arg, convolve, log, numerators, sinc_half

__all__ = [
    "CheckReport", "MuValue", "i_function_expansion", "mu_g0", "mu_g1", "mu_values",
    "verify_i_ratio", "verify_mu_consistency",
]

# Classes of degree above 3 vanish on a threefold: the expansion caps H^a c1^b at a + b <= 3.
_DEGREE_CAP = 3


class MuValue(Record, fields="a1 a_H a_c1"):
    """mu_{g,0}(z) = a1*z + a_H*H + a_c1*c1; it has no constant term."""

    __slots__ = ()

    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        """{(z-power, H-power, c1-power): coefficient}, the expansion's layout, zeros left out."""
        pairs = (((1, 0, 0), self.a1), ((0, 1, 0), self.a_H), ((0, 0, 1), self.a_c1))
        return {key: q for key, q in pairs if q}


class CheckReport(Record, fields="passed checked first_failure detail", defaults=(None, "")):
    """Outcome of a per-genus identity check."""

    __slots__ = ()


_memo: tuple[MuValue, ...] = ()  # the largest build so far; a smaller top reads its prefix


def mu_values(g_top: int) -> tuple[MuValue, ...]:
    r"""The vertex values mu_{g,0} for g = 1..g_top, entry g - 1, from one build.

    a_g = [u^{2g}] S^2 and b_g = [u^{2g}] (S^2 log S) for every genus are
    read off one S, S^2 and S^2 log S through u^{2 g_top}.  The largest
    build is kept and a smaller g_top reads its prefix: a `verify-identities`
    call builds once, for the standard vertex table that both grids of
    `wallcross.verify_grids` read, and its expansion checks read a prefix.
    Empty below g_top = 1.  g_top must be an int, or TypeError names it.
    """
    global _memo
    if _int_arg("g_top", g_top) > len(_memo):
        s = sinc_half(2 * g_top + 2)
        s2 = s * s
        s2_log = s2 * log(s)
        _memo = tuple(MuValue(a1=a, a_H=-a + 3 * b, a_c1=b)
                      for a, b in ((s2.coefficient(2 * g), s2_log.coefficient(2 * g))
                                   for g in range(1, g_top + 1)))
    return _memo[:max(g_top, 0)]


def mu_g0(g: int) -> MuValue:
    r"""The genus-g vertex value mu_{g,0}(z) = a_g (z - H) + b_g (3H + c1).

    Here a_g = [u^{2g}] S^2 and b_g = [u^{2g}] (S^2 log S) with
    S = sin(u/2)/(u/2); mu_{0,0} = 0 is excluded (g >= 1).  Read off
    `mu_values(g)`.  g must be an int, or TypeError names it.
    """
    if _int_arg("g", g) < 1:
        raise ValueError("mu_g0 is defined for g >= 1 (the genus-0 value is 0)")
    return mu_values(g)[g - 1]


def mu_g1(g: int) -> Fraction:
    r"""mu_{g,1} = [u^{2g}] (S^2 - 1) = a_g, read off `mu_g0`; mu_{0,1} = 0 excluded.

    g must be an int, or TypeError names it.
    """
    if _int_arg("g", g) < 1:
        raise ValueError("mu_g1 is defined for g >= 1 (the genus-0 value is 0)")
    return mu_g0(g).a1


def i_function_expansion(order_u: int) -> dict[int, dict[tuple[int, int, int], Fraction]]:
    r"""Per-genus expansion of z' * S^2 * exp((3H + c1) log S / z') at z' = z - H.

    Returns {g: {(z-power, H-power, c1-power): coefficient of u^{2g}}} for
    every genus the truncation order determines (2g < order_u), zero
    coefficients left out and classes capped at total degree 3.  Layer j,
    the z'^(1-j) term, carries (3H + c1)^j, so layers j = 0..3 are all
    there are.  Under z' = z - H the negative z'-powers of layers 2 and 3
    give only negative z-powers, because
    (z - H)^(-m) = sum_i binom(m+i-1, i) H^i z^(-m-i): the z-nonnegative
    part comes from layers 0 and 1, and the rest is the recorded tail that
    the checks' [z >= 0] truncation drops.  order_u must be an int, or
    TypeError names it.
    """
    if _int_arg("order_u", order_u) <= 0:
        return {}

    # S and log S as numerators of x^0..x^(size-1), x = u^2, over one denominator each
    size = (order_u + 1) // 2
    s = sinc_half(order_u)
    s_nums, s_den = numerators([s.coefficient(2 * i) for i in range(size)])
    ls = log(s)
    l_nums, l_den = numerators([ls.coefficient(2 * i) for i in range(size)])

    # at z' = z - H layer j's class is (3H + c1)^j (z - H)^e with e = 1 - j,
    # that is sum_{h,i} C(j, h) 3^h H^h c1^(j-h) binom(e, i) (-H)^i z^(e-i),
    # kept to degree j + i <= 3 and expanded once per layer as
    # {(z-power, H-power, c1-power): integer}
    layers = []
    # S^2 (log S)^j / j! in x, from the layer before (no power kernel); each
    # layer's denominator divides the next one's
    scalar = convolve(s_nums, s_nums, size), s_den * s_den
    for j in range(_DEGREE_CAP + 1):
        if j:
            scalar = convolve(scalar[0], l_nums, size), scalar[1] * l_den * j
        terms = {}
        coef = 1  # binom(e, i) (-1)^i
        for i in range(_DEGREE_CAP - j + 1):
            if not coef:
                break
            for h in range(j + 1):
                terms[(1 - j - i, h + i, j - h)] = comb(j, h) * 3**h * coef
            coef = coef * (i + j - 1) // (i + 1)
        layers.append((scalar, terms))

    # each genus sums its layers on one integer dict over the last layer's denominator
    den = layers[-1][0][1]
    scaled = [([x * (den // d) for x in nums], terms) for (nums, d), terms in layers]
    out = {}
    for g in range(size):
        acc: dict[tuple[int, int, int], int] = {}
        for nums, terms in scaled:
            for key, x in terms.items():
                acc[key] = acc.get(key, 0) + x * nums[g]
        out[g] = {key: Fraction(x, den) for key, x in acc.items() if x}
    return out


def _check(expansion: Mapping[int, Mapping[tuple[int, int, int], Fraction]],
           got_and_want) -> CheckReport:
    """Compare got_and_want(terms, mu) for every genus g >= 1 of the expansion.

    A failing genus names its first mismatching (z, H, c1) term, in key
    order, as `wallcross._cell` names a coefficient.
    """
    genera = tuple(g for g in sorted(expansion) if g >= 1)
    mu = mu_values(max(genera, default=0))
    for g in genera:
        got, want = got_and_want(expansion[g], mu[g - 1])
        for key in sorted(got.keys() | want.keys()):
            x, y = got.get(key, 0), want.get(key, 0)
            if x != y:
                z, h, c1 = key
                return CheckReport(False, genera, g, f"z^{z} H^{h} c1^{c1}: got {x}, want {y}")
    return CheckReport(True, genera)


def verify_mu_consistency(
        expansion: Mapping[int, Mapping[tuple[int, int, int], Fraction]]) -> CheckReport:
    """Check [z >= 0] of the expansion against the closed-form mu_{g,0}, genera g >= 1."""
    return _check(expansion, lambda terms, mu: (
        {key: q for key, q in terms.items() if key[0] >= 0}, mu.terms()))


def verify_i_ratio(
        expansion: Mapping[int, Mapping[tuple[int, int, int], Fraction]]) -> CheckReport:
    """Check that [z >= 0] of (expansion / z) is the constant mu_{g,1}, genera g >= 1.

    A mismatch is named as a term of expansion / z.
    """
    return _check(expansion, lambda terms, mu: (
        {(z - 1, h, c1): q for (z, h, c1), q in terms.items() if z >= 1}, {(0, 0, 0): mu.a1}))
