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
(`mu_values`) of S, S^2 and S^2 log S through the top genus, memoised per
top genus, so the raw grid's vertex table, the two checks and `mu --g-max`
each read one build; `mu_g0` and `mu_g1` read it for a single genus.

`i_function_expansion` re-derives them from the exponential identity, so
the two routes can be checked against each other: `verify_mu_consistency`
compares its [z >= 0] part with mu_{g,0}, and `verify_i_ratio` checks that
dividing it by z reproduces the mu_{g,1} constants.  Both checks accept one
shared expansion.  `GradedPoly` coefficients are exact: `int` or
`Fraction`, never a float.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb

from ._record import Record
from .series import convolve, log, numerators, sinc_half

__all__ = [
    "CheckReport", "GradedPoly", "MuValue", "ZLaurent", "i_function_expansion", "mu_g0", "mu_g1",
    "mu_values", "verify_i_ratio", "verify_mu_consistency",
]

# Classes of degree above 3 vanish on a threefold: the expansion caps H^a c1^b at a + b <= 3.
_DEGREE_CAP = 3


class GradedPoly:
    """Polynomial in the commuting classes H and c1, capped by total degree.

    Terms of total degree above ``degree_cap`` are dropped by every
    operation, exactly like working modulo that power of the ideal (H, c1).
    Coefficients are `int` or `Fraction`; anything else, floats included,
    raises `TypeError`, as for `USeries`.
    """

    __slots__ = ("terms", "degree_cap")

    def __init__(self, terms: Mapping[tuple[int, int], int | Fraction], degree_cap: int):
        if degree_cap < 0:
            raise ValueError("degree_cap must be nonnegative")
        clean = {}
        for (i, j), q in terms.items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if not isinstance(q, (int, Fraction)):
                raise TypeError(f"GradedPoly coefficients must be int or Fraction, got {q!r}")
            if q and i + j <= degree_cap:
                clean[(i, j)] = q if isinstance(q, Fraction) else Fraction(q)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree_cap", degree_cap)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPoly is immutable")

    @classmethod
    def zero(cls, degree_cap: int) -> GradedPoly:
        return cls({}, degree_cap)

    @classmethod
    def scalar(cls, q, degree_cap: int) -> GradedPoly:
        return cls({(0, 0): q}, degree_cap)

    def coefficient(self, h_pow: int, c1_pow: int) -> Fraction:
        return self.terms.get((h_pow, c1_pow), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.degree_cap == other.degree_cap and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: GradedPoly) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.degree_cap != other.degree_cap:
            raise ValueError("mixed degree caps")
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + q
        return GradedPoly(out, self.degree_cap)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (i, j) in sorted(self.terms):
            q = self.terms[(i, j)]
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in (("H", i), ("c1", j)) if e]
            sym = "*".join(factors)
            bits.append(f"{q}*{sym}" if sym else f"{q}")
        return " + ".join(bits)


class ZLaurent:
    """Finite Laurent polynomial in z with GradedPoly coefficients."""

    __slots__ = ("z_min", "coeffs", "cap")

    def __init__(self, terms: Mapping[int, GradedPoly], cap: int):
        live = {p: q for p, q in terms.items() if q}
        for q in live.values():
            if q.degree_cap != cap:
                raise ValueError("mixed degree caps")
        if not live:
            object.__setattr__(self, "z_min", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            lo, hi = min(live), max(live)
            zero = GradedPoly.zero(cap)
            object.__setattr__(self, "z_min", lo)
            object.__setattr__(
                self, "coeffs", tuple(live.get(p, zero) for p in range(lo, hi + 1)))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ZLaurent is immutable")

    @property
    def z_max(self) -> int:
        return self.z_min + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> GradedPoly:
        if self.z_min <= power <= self.z_max:
            return self.coeffs[power - self.z_min]
        return GradedPoly.zero(self.cap)

    def shift(self, k: int) -> ZLaurent:
        """Multiply by z**k."""
        return ZLaurent({p + k: q for p, q in self._items()}, self.cap)

    def nonneg(self) -> ZLaurent:
        """The truncation [.]_{z >= 0}: drop every negative z-power."""
        return ZLaurent({p: q for p, q in self._items() if p >= 0}, self.cap)

    def _items(self):
        return ((self.z_min + i, q) for i, q in enumerate(self.coeffs) if q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return (self.cap == other.cap and self.z_min == other.z_min
                and self.coeffs == other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"z^{p}*({q})" for p, q in self._items())


class MuValue(Record, fields="a1 a_H a_c1 scalar", defaults=(Fraction(0),)):
    """mu_{g,0}(z) = a1*z + a_H*H + a_c1*c1 + scalar."""

    __slots__ = ()

    def as_zlaurent(self, cap: int) -> ZLaurent:
        const = GradedPoly({(1, 0): self.a_H, (0, 1): self.a_c1, (0, 0): self.scalar}, cap)
        return ZLaurent({1: GradedPoly.scalar(self.a1, cap), 0: const}, cap)


class CheckReport(Record, fields="passed checked first_failure detail", defaults=(None, "")):
    """Outcome of a per-genus identity check."""

    __slots__ = ()


@cache
def mu_values(g_top: int) -> tuple[MuValue, ...]:
    r"""The vertex values mu_{g,0} for g = 1..g_top, entry g - 1, from one build.

    a_g = [u^{2g}] S^2 and b_g = [u^{2g}] (S^2 log S) for every genus are
    read off one S, S^2 and S^2 log S through u^{2 g_top}.  Memoised per
    g_top, so the raw grid's vertex table and the two expansion checks of
    one `verify-identities` call share one build.  Empty below g_top = 1.
    """
    if g_top < 1:
        return ()
    s = sinc_half(2 * g_top + 2)
    s2 = s * s
    s2_log = s2 * log(s)
    return tuple(MuValue(a1=a, a_H=-a + 3 * b, a_c1=b)
                 for a, b in ((s2.coefficient(2 * g), s2_log.coefficient(2 * g))
                              for g in range(1, g_top + 1)))


def mu_g0(g: int) -> MuValue:
    r"""The genus-g vertex value mu_{g,0}(z) = a_g (z - H) + b_g (3H + c1).

    Here a_g = [u^{2g}] S^2 and b_g = [u^{2g}] (S^2 log S) with
    S = sin(u/2)/(u/2); mu_{0,0} = 0 is excluded (g >= 1).  Read off
    `mu_values(g)`.
    """
    if g < 1:
        raise ValueError("mu_g0 is defined for g >= 1 (the genus-0 value is 0)")
    return mu_values(g)[g - 1]


def mu_g1(g: int) -> Fraction:
    r"""mu_{g,1} = [u^{2g}] (S^2 - 1) = a_g, read off `mu_g0`; mu_{0,1} = 0 excluded."""
    if g < 1:
        raise ValueError("mu_g1 is defined for g >= 1 (the genus-0 value is 0)")
    return mu_g0(g).a1


def i_function_expansion(order_u: int) -> dict[int, ZLaurent]:
    r"""Per-genus Laurent expansion of z' * S^2 * exp((3H + c1) log S / z') at z' = z - H.

    Returns {g: coefficient of u^{2g} as a ZLaurent in z} for every genus
    the truncation order determines (2g < order_u), with classes capped at
    degree 3.  Layer j, the z'^(1-j) term, carries (3H + c1)^j, so layers
    j = 0..3 are all there are.  Under z' = z - H the negative z'-powers of
    layers 2 and 3 give only negative z-powers, because
    (z - H)^(-m) = sum_i binom(m+i-1, i) H^i z^(-m-i): the z-nonnegative
    part comes from layers 0 and 1, and the rest is the recorded tail that
    the checks' [z >= 0] truncation drops.
    """
    if order_u <= 0:
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
    # (z-power, class) pairs on plain dicts
    layers = []
    # S^2 (log S)^j / j! in x, from the layer before (no power kernel); each
    # layer's denominator divides the next one's
    scalar = convolve(s_nums, s_nums, size), s_den * s_den
    for j in range(_DEGREE_CAP + 1):
        if j:
            scalar = convolve(scalar[0], l_nums, size), scalar[1] * l_den * j
        pieces = []
        coef = 1  # binom(e, i) (-1)^i
        for i in range(_DEGREE_CAP - j + 1):
            if not coef:
                break
            pieces.append((1 - j - i, {(h + i, j - h): comb(j, h) * 3**h * coef
                                       for h in range(j + 1)}))
            coef = coef * (i + j - 1) // (i + 1)
        layers.append((scalar, pieces))

    # each genus sums its layers' pieces on plain dicts over the last layer's
    # denominator, one GradedPoly per z-power
    den = layers[-1][0][1]
    scaled = [([x * (den // d) for x in nums], pieces) for (nums, d), pieces in layers]
    out: dict[int, ZLaurent] = {}
    for g in range(size):
        zterms: dict[int, dict[tuple[int, int], int | Fraction]] = {}
        for nums, pieces in scaled:
            n = nums[g]
            if not n:
                continue
            for power, terms in pieces:
                acc = zterms.setdefault(power, {})
                for key, x in terms.items():
                    acc[key] = acc.get(key, 0) + x * n
        out[g] = ZLaurent({p: GradedPoly({key: Fraction(x, den) for key, x in terms.items()},
                                         _DEGREE_CAP)
                           for p, terms in zterms.items()}, _DEGREE_CAP)
    return out


def verify_mu_consistency(order_u: int,
                          expansion: Mapping[int, ZLaurent] | None = None) -> CheckReport:
    """Check [z >= 0] of the expansion against the closed-form mu_{g,0}.

    Genera g with 1 <= g <= order_u / 2 are checked (the bound is
    inclusive; the expansion is computed at whatever internal order that
    needs).  A supplied ``expansion`` is checked as-is over its own genera.
    """
    if expansion is None:
        g_top = order_u // 2
        expansion = i_function_expansion(2 * g_top + 2)
    genera = tuple(g for g in sorted(expansion) if g >= 1)
    mu = mu_values(max(genera, default=0))
    for g in genera:
        zl = expansion[g]
        if zl.nonneg() != mu[g - 1].as_zlaurent(zl.cap):
            return CheckReport(False, genera, g,
                               f"[z>=0] mismatch at genus {g}: {zl.nonneg()!r}")
    return CheckReport(True, genera)


def verify_i_ratio(order_u: int, expansion: Mapping[int, ZLaurent] | None = None) -> CheckReport:
    """Check that [z >= 0] of (expansion / z) equals the constants mu_{g,1}.

    Covers genera 1 <= g <= order_u / 2 (vacuous pass when that range is
    empty).  A supplied ``expansion`` is checked as-is over its own genera.
    """
    if expansion is None:
        g_top = order_u // 2
        expansion = i_function_expansion(2 * g_top + 2)
    genera = tuple(g for g in sorted(expansion) if g >= 1)
    mu = mu_values(max(genera, default=0))
    for g in genera:
        zl = expansion[g]
        lhs = zl.shift(-1).nonneg()
        rhs = ZLaurent({0: GradedPoly.scalar(mu[g - 1].a1, zl.cap)}, zl.cap)
        if lhs != rhs:
            return CheckReport(False, genera, g,
                               f"ratio mismatch at genus {g}: {lhs!r} != {rhs!r}")
    return CheckReport(True, genera)
