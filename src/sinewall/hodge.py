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
every genus scales those pieces by its own u^{2g} coefficient.  The layers'
series S^2 (log S)^j / j! are integer numerators in x = u^2, built by
`convolve` from one S and one log S, and each genus sums its pieces on
plain dicts over one denominator, with one `GradedPoly` per z-power.  The closed forms of every genus come from one build
(`mu_values`): one S, S^2 and S^2 log S through the top genus, memoised per
top genus, so the raw grid's vertex table, the two checks and `mu --g-max`
each read one build; `mu_g0` and `mu_g1` read it for a single genus.
`GradedPoly` coefficients are exact: `int` or `Fraction`, never a float.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache

from ._record import Record
from .series import convolve, log, numerators, sinc_half

__all__ = [
    "CheckReport", "GradedPoly", "MuValue", "ZLaurent", "i_function_expansion", "mu_g0", "mu_g1",
    "mu_values", "verify_i_ratio", "verify_mu_consistency",
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

    # S and log S as numerators of x^0..x^(size-1), x = u^2, over one denominator each
    size = (order_u + 1) // 2
    s = sinc_half(order_u)
    s_nums, s_den = numerators([s.coefficient(2 * i) for i in range(size)])
    ls = log(s)
    l_nums, l_den = numerators([ls.coefficient(2 * i) for i in range(size)])

    # z'^(1-j) carries S^2 (log S)^j a2^j / j!; at z' = z - H it is
    # a2^j (z - H)^e = sum_i a2^j binom(e, i) (-H)^i z^(e-i) with e = 1 - j,
    # expanded once per layer as (z-power, class) pairs: the terms of a2^j,
    # i powers of H up and scaled, on plain dicts
    layers = []
    a2_pow = GradedPoly.one(cap)
    # S^2 (log S)^j / j! in x, from the layer before (no power kernel); each
    # layer's denominator divides the next one's
    scalar = convolve(s_nums, s_nums, size), s_den * s_den
    for j in range(0, z_depth + 2):
        if j > 0:
            a2_pow = a2_pow * a2
            if not a2_pow:
                break
            scalar = convolve(scalar[0], l_nums, size), scalar[1] * l_den * j
        # an integral class (3H + c1 is one) keeps the sums below in ints
        terms = {key: x.numerator if x.denominator == 1 else x for key, x in a2_pow.terms.items()}
        e, coef = 1 - j, 1
        pieces = []
        for i in range(cap + 1):
            piece = {(h + i, c): x * coef for (h, c), x in terms.items()
                     if coef and h + i + c <= cap}
            if not piece:
                break
            pieces.append((e - i, piece))
            coef = coef * (i - e) // (i + 1)  # binom(e, i+1) (-1)^(i+1)
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
        out[g] = ZLaurent({p: GradedPoly({key: Fraction(x, den) for key, x in terms.items()}, cap)
                           for p, terms in zterms.items()}, cap)
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
    mu = mu_values(max(genera, default=0))
    for g in genera:
        zl = expansion[g]
        if zl.nonneg() != mu[g - 1].as_zlaurent(zl.cap):
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
    mu = mu_values(max(genera, default=0))
    for g in genera:
        zl = expansion[g]
        lhs = zl.shift(-1).nonneg()
        rhs = ZLaurent({0: GradedPoly.scalar(mu[g - 1].a1, zl.cap)}, zl.cap)
        if lhs != rhs:
            return CheckReport(False, genera, g,
                               f"ratio mismatch at genus {g}: {lhs!r} != {rhs!r}")
    return CheckReport(True, genera)
