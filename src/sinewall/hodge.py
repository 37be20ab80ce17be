r"""Vertex contributions mu_{g,0}, mu_{g,1} and the local obstruction expansion.

Everything here expands one master identity,

    z' * S(u)^((2 z' + 3 H + c1) / z') = z' * S^2 * exp((3H + c1) * log S / z'),

a Laurent series in z' with coefficients that are polynomials in the two
commuting degree-1 classes H and c1 (truncated above a total-degree cap).
Substituting z' = z - H and keeping the z-nonnegative part of the u^{2g}
coefficient yields the vertex value

    mu_{g,0}(z) = a_g * (z - H) + b_g * (3H + c1),
    a_g = [u^{2g}] S^2,   b_g = [u^{2g}] (S^2 * log S),

and the companion constant mu_{g,1} = [u^{2g}] (S^2 - 1) = a_g, read off
`mu_g0`.  The closed forms are authoritative; `i_function_expansion`
re-derives them from the exponential identity so the two routes can be
checked against each other, and `verify_i_ratio` checks that dividing the
expansion by z reproduces the mu_{g,1} constants.  Both checks accept one
shared expansion.  The expansion substitutes z' = z - H once per
z'-power: each layer's (z - H)^{1-j} times its class is expanded once, and
every genus scales those pieces by its own u^{2g} coefficient.  `mu_g0` is
memoised per genus and `mu_g1` reads it, so the raw grid's vertex table and
the two checks share one computation of each constant.  `GradedPoly`
coefficients are exact: `int` or `Fraction`, never a float.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import cache

from .series import log, sinc_half

__all__ = [
    "CheckReport", "GradedPoly", "MuValue", "ZLaurent", "i_function_expansion", "mu_g0", "mu_g1",
    "verify_i_ratio", "verify_mu_consistency",
]


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
                clean[(i, j)] = Fraction(q)
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

    @classmethod
    def one(cls, degree_cap: int) -> GradedPoly:
        return cls.scalar(1, degree_cap)

    @classmethod
    def hyperplane(cls, degree_cap: int) -> GradedPoly:
        """The relative hyperplane class H."""
        return cls({(1, 0): Fraction(1)}, degree_cap)

    @classmethod
    def first_chern(cls, degree_cap: int) -> GradedPoly:
        """The class c1."""
        return cls({(0, 1): Fraction(1)}, degree_cap)

    def coefficient(self, h_pow: int, c1_pow: int) -> Fraction:
        return self.terms.get((h_pow, c1_pow), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.degree_cap == other.degree_cap and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def _check_cap(self, other: GradedPoly) -> None:
        if self.degree_cap != other.degree_cap:
            raise ValueError("mixed degree caps")

    def __add__(self, other: GradedPoly) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_cap(other)
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + q
        return GradedPoly(out, self.degree_cap)

    def __neg__(self) -> GradedPoly:
        return GradedPoly({k: -q for k, q in self.terms.items()}, self.degree_cap)

    def __mul__(self, other: object) -> GradedPoly:
        if isinstance(other, GradedPoly):
            self._check_cap(other)
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), q1 in self.terms.items():
                for (i2, j2), q2 in other.terms.items():
                    if i1 + i2 + j1 + j2 > self.degree_cap:
                        continue
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, Fraction(0)) + q1 * q2
            return GradedPoly(out, self.degree_cap)
        if isinstance(other, (int, Fraction)):
            return GradedPoly({k: q * other for k, q in self.terms.items()}, self.degree_cap)
        return NotImplemented

    def __rmul__(self, other: object) -> GradedPoly:
        return self.__mul__(other)

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
            object.__setattr__(self, "z_min", lo)
            object.__setattr__(
                self, "coeffs",
                tuple(live.get(p, GradedPoly.zero(cap)) for p in range(lo, hi + 1)),
            )
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


class MuValue(namedtuple("MuValue", "a1 a_H a_c1 scalar", defaults=(Fraction(0),))):
    """mu_{g,0}(z) = a1*z + a_H*H + a_c1*c1 + scalar."""

    __slots__ = ()

    def as_zlaurent(self, cap: int) -> ZLaurent:
        const = (GradedPoly.hyperplane(cap) * self.a_H
                 + GradedPoly.first_chern(cap) * self.a_c1
                 + GradedPoly.scalar(self.scalar, cap))
        return ZLaurent({1: GradedPoly.scalar(self.a1, cap), 0: const}, cap)


class CheckReport(namedtuple("CheckReport", "passed checked first_failure detail",
                             defaults=(None, ""))):
    """Outcome of a per-genus identity check."""

    __slots__ = ()


@cache
def mu_g0(g: int) -> MuValue:
    r"""The genus-g vertex value mu_{g,0}(z) = a_g (z - H) + b_g (3H + c1).

    Here a_g = [u^{2g}] S^2 and b_g = [u^{2g}] (S^2 log S) with
    S = sin(u/2)/(u/2); mu_{0,0} = 0 is excluded (g >= 1).
    """
    if g < 1:
        raise ValueError("mu_g0 is defined for g >= 1 (the genus-0 value is 0)")
    order = 2 * g + 2
    s = sinc_half(order)
    s2 = s * s
    a = s2.coefficient(2 * g)
    b = (s2 * log(s)).coefficient(2 * g)
    return MuValue(a1=a, a_H=-a + 3 * b, a_c1=b)


def mu_g1(g: int) -> Fraction:
    r"""mu_{g,1} = [u^{2g}] (S^2 - 1) = a_g, read off `mu_g0`; mu_{0,1} = 0 excluded."""
    if g < 1:
        raise ValueError("mu_g1 is defined for g >= 1 (the genus-0 value is 0)")
    return mu_g0(g).a1


def i_function_expansion(order_u: int, z_depth: int = 3, degree_cap: int = 3,
                         divisor_class: GradedPoly | None = None) -> dict[int, ZLaurent]:
    r"""Per-genus Laurent expansion of z' * S^2 * exp((3H + c1) log S / z') at z' = z - H.

    Returns {g: coefficient of u^{2g} as a ZLaurent in z} for every genus
    the truncation order determines (2g < order_u).  ``z_depth`` is the
    number of negative z'-powers retained.  Negative z'-powers only ever
    produce negative z-powers under the substitution z' = z - H, because
    (z - H)^(-m) = sum_i binom(m+i-1, i) H^i z^(-m-i); so the z-nonnegative
    part is already complete at any z_depth >= 1, and deeper settings only
    lengthen the recorded tail.

    ``divisor_class`` replaces 3H + c1 in the exponent (testing hook).
    """
    if z_depth < 1:
        raise ValueError("z_depth must be at least 1")
    if degree_cap < 2:
        raise ValueError("degree_cap must be at least 2")
    cap = degree_cap
    a2 = divisor_class if divisor_class is not None else (
        GradedPoly.hyperplane(cap) * 3 + GradedPoly.first_chern(cap))
    if divisor_class is not None and divisor_class.degree_cap != cap:
        raise ValueError("divisor_class cap must equal degree_cap")
    if order_u <= 0:
        return {}

    s = sinc_half(order_u)
    s2 = s * s
    ls = log(s)
    hyper = GradedPoly.hyperplane(cap)

    # z'^(1-j) carries S^2 (log S)^j a2^j / j!; at z' = z - H it is
    # a2^j (z - H)^e = sum_i a2^j binom(e, i) (-H)^i z^(e-i) with e = 1 - j,
    # expanded once per layer as (z-power, class) pairs
    layers = []
    a2_pow = GradedPoly.one(cap)
    scalar_series = s2  # S^2 (log S)^j / j!, from the layer before: no power kernel
    for j in range(0, z_depth + 2):
        if j > 0:
            a2_pow = a2_pow * a2
            if not a2_pow:
                break
            scalar_series = scalar_series * ls * Fraction(1, j)
        e, coef, term = 1 - j, 1, a2_pow
        pieces = []
        for i in range(cap + 1):
            piece = term * coef
            if not piece:
                break
            pieces.append((e - i, piece))
            term = term * hyper
            coef = coef * (i - e) // (i + 1)  # binom(e, i+1) (-1)^(i+1)
        layers.append((scalar_series, pieces))

    out: dict[int, ZLaurent] = {}
    for g in range(0, (order_u - 1) // 2 + 1):
        zterms: dict[int, GradedPoly] = {}
        for scalar_series, pieces in layers:
            q = scalar_series.coefficient(2 * g)
            if not q:
                continue
            for power, poly in pieces:
                zterms[power] = zterms.get(power, GradedPoly.zero(cap)) + poly * q
        out[g] = ZLaurent(zterms, cap)
    return out


def verify_mu_consistency(order_u: int, z_depth: int = 3, degree_cap: int = 3,
                          expansion: Mapping[int, ZLaurent] | None = None) -> CheckReport:
    """Check [z >= 0] of the expansion against the closed-form mu_{g,0}.

    Genera g with 1 <= g <= order_u / 2 are checked (the bound is
    inclusive; the expansion is computed at whatever internal order that
    needs).  A supplied ``expansion`` is checked as-is over its own genera.
    """
    if expansion is None:
        g_top = order_u // 2
        expansion = i_function_expansion(2 * g_top + 2, z_depth, degree_cap)
    genera = tuple(g for g in sorted(expansion) if g >= 1)
    for g in genera:
        zl = expansion[g]
        if zl.nonneg() != mu_g0(g).as_zlaurent(zl.cap):
            return CheckReport(False, genera, g,
                               f"[z>=0] mismatch at genus {g}: {zl.nonneg()!r}")
    return CheckReport(True, genera)


def verify_i_ratio(order_u: int, z_depth: int = 3, degree_cap: int = 3,
                   expansion: Mapping[int, ZLaurent] | None = None) -> CheckReport:
    """Check that [z >= 0] of (expansion / z) equals the constants mu_{g,1}.

    Covers genera 1 <= g <= order_u / 2 (vacuous pass when that range is
    empty).  A supplied ``expansion`` is checked as-is over its own genera.
    """
    if expansion is None:
        g_top = order_u // 2
        expansion = i_function_expansion(2 * g_top + 2, z_depth, degree_cap)
    genera = tuple(g for g in sorted(expansion) if g >= 1)
    for g in genera:
        zl = expansion[g]
        lhs = zl.shift(-1).nonneg()
        rhs = ZLaurent({0: GradedPoly.scalar(mu_g1(g), zl.cap)}, zl.cap)
        if lhs != rhs:
            return CheckReport(False, genera, g,
                               f"ratio mismatch at genus {g}: {lhs!r} != {rhs!r}")
    return CheckReport(True, genera)
