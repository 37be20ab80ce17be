r"""Exact truncated power series in one variable u.

All arithmetic is exact.  A series is stored densely: ``coeffs[i]`` is the
coefficient of ``u**(valuation + i)``, and every exponent at or above
``order`` is unknown.  The truncation order is exclusive, so a series of
order 6 carries no information about the coefficient of ``u**6``.  The
invariant ``order == valuation + len(coeffs)`` always holds; the zero
series is stored with empty ``coeffs`` and ``valuation == order``, which
makes equality testing decidable.

The binary operations are ``+`` and ``*`` of two series; there is no
scalar multiple, because the pipeline scales integer numerators, never a
series.  They keep only coefficients both operands determine:
``order(f + g) == min(order(f), order(g))`` and
``order(f * g) == min(order(f) + val(g), order(g) + val(f))``.  Integer
powers, inversion included, preserve relative precision, so ``inv(f)``
knows exactly as many coefficients as ``f`` does.

``pow_int``, ``inv``, ``exp`` and ``log`` each make one pass over the
coefficients, by a recurrence read off a first-order differential equation.
Each first finds the stride d of its input (`_stride`): the gcd of the
exponents of the nonzero coefficients, counted from the valuation for
``pow_int`` and from u^0 for ``exp`` and ``log``.  The input is then a series
in x = u^d, so the recurrence runs on every d-th coefficient and its result
is spread back to the multiples of d.  Every series of the pipeline is even
in u (d = 2); a dense series has d = 1 and takes the same path.
``exp`` and ``log`` sum each step of their recurrence on integers: the input
as numerators over its least common denominator, the result so far as
numerators over the running lcm of its denominators (`_push`), and one
`Fraction` per new coefficient.  ``pow_int`` still sums each step in
`Fraction` (ROADMAP item 3).  The transform's forward matrix calls it once
per column, and the inverse once in all, for the seed of the integer ladder
that `wallcross._sine_powers` builds its rows from.

This module also owns the integer rows that the transform, the identity
grids and the vertex values work on.  A row is an even series read in
x = u^2: the integer numerators of x^0..x^(n-1) over one positive
denominator, in lowest terms.  `even_row` reads a `USeries` as a row and
`even_series` spreads a row back to a `USeries` through a u-order; outside
this module they are the only two crossings of that boundary.  On rows, `numerators` puts
`Fraction`s over their least common denominator, `convolve` is the one
product kernel (``*`` of two series runs on it too), `_lowest` divides out
a common factor, `_ladder` builds the powers of one row, one `convolve` per
power, each cut to its own size, and `_rung` reads one such power by
repeated squaring.

Coefficients are exact rationals (`fractions.Fraction`); the constructor
accepts `int` and `Fraction` and refuses everything else, floats included.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm

__all__ = [
    "ConstantTermNotOne", "NonzeroConstantTerm", "USeries", "ZeroSeries", "exp", "inv", "log",
    "pow_int", "sinc_half",
]


class ZeroSeries(ValueError):
    """Raised when inverting a series with no known nonzero coefficient."""


class NonzeroConstantTerm(ValueError):
    """Raised by exp() on input with a constant term or negative powers."""


class ConstantTermNotOne(ValueError):
    """Raised by log() unless the input has constant term exactly one."""


def _rational(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"series coefficients must be int or Fraction, got {value!r}")


def _int_arg(name: str, value):
    """``value`` itself if it is an int and not a bool; a TypeError that names it otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


def numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator: coeffs[i] == ints[i] / den.

    The denominator is positive and the row in lowest terms: a prime power
    that exactly divides the lcm exactly divides some coefficient's reduced
    denominator too, so the prime divides neither that coefficient's
    numerator nor the factor it is scaled by.
    """
    den = lcm(*(c.denominator for c in coeffs))  # 1 for no coefficients
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the Cauchy product of a and b, zeros past either end."""
    out = [0] * n
    b_nonzero = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in b_nonzero:
                if i + j >= n:
                    break
                out[i + j] += x * y
    return out


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den in lowest terms: the gcd divided out, and the denominator made positive."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return [x // g for x in nums], den // g


def _ladder(step: list[int], step_den: int, sizes: list[int],
            seed: tuple[list[int], int] | None = None) -> list[tuple[list[int], int]]:
    """seed (step / step_den)^j for j < len(sizes): numerators of x^0..x^(sizes[j]-1), one den.

    Every power is one integer `convolve` from the power before, through its
    own size, put in lowest terms (`_lowest`); the sizes must not increase,
    since a power reads the one before it only that far.  Entry 0 is
    ``seed``, or 1 without one; a seed is given the same way, (numerators,
    den), over x^0..x^(sizes[0]-1).
    """
    powers = [seed or ([int(i == 0) for i in range(sizes[0])], 1)]
    for size in sizes[1:]:
        nums, den = powers[-1]
        powers.append(_lowest(convolve(nums, step, size), den * step_den))
    return powers


def _rung(step: list[int], step_den: int, n: int, size: int) -> tuple[list[int], int]:
    """Rung n of a `_ladder` on ``step``, (step / step_den)^n, by repeated squaring.

    One integer `convolve` per squaring and per set bit of n, each put in
    lowest terms (`_lowest`), so the cost grows with log n.
    """
    power, rung = (step, step_den), ([int(i == 0) for i in range(size)], 1)
    while n:
        if n & 1:
            rung = _lowest(convolve(rung[0], power[0], size), rung[1] * power[1])
        n >>= 1
        if n:
            power = _lowest(convolve(power[0], power[0], size), power[1] ** 2)
    return rung


class USeries:
    """A truncated Laurent series in u with rational coefficients."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[int | Fraction]):
        cs = [_rational(c) for c in coeffs]
        # canonical form: leading coefficient nonzero; the zero series is
        # empty with valuation == order, which lead == len(cs) gives
        lead = next((i for i, c in enumerate(cs) if c), len(cs))
        object.__setattr__(self, "valuation", valuation + lead)
        object.__setattr__(self, "coeffs", tuple(cs[lead:]))
        object.__setattr__(self, "order", valuation + len(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("USeries is immutable")

    @classmethod
    def zero(cls, order: int) -> USeries:
        """The series known to vanish at every exponent below ``order``."""
        return cls(order, ())

    @classmethod
    def one(cls, order: int) -> USeries:
        if order <= 0:
            return cls.zero(order)
        return cls(0, [Fraction(1)] + [Fraction(0)] * (order - 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of ``u**exponent``; exponents >= order are unknown."""
        if exponent >= self.order:
            raise ValueError(
                f"coefficient of u^{exponent} lies at or above truncation order {self.order}"
            )
        if exponent < self.valuation:
            return Fraction(0)
        return self.coeffs[exponent - self.valuation]

    def agrees(self, other: USeries) -> bool:
        """Equality of all coefficients both series determine."""
        upto = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, upto))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: USeries) -> USeries:
        if not isinstance(other, USeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if order <= lo:
            return USeries.zero(order)
        out = [self.coefficient(k) + other.coefficient(k) for k in range(lo, order)]
        return USeries(lo, out)

    def __mul__(self, other: USeries) -> USeries:
        if not isinstance(other, USeries):
            return NotImplemented
        order = min(self.order + other.valuation, other.order + self.valuation)
        val = self.valuation + other.valuation
        n = order - val  # == min of the two relative precisions
        if n <= 0:
            return USeries.zero(order)
        a, da = numerators(self.coeffs[:n])
        b, db = numerators(other.coeffs[:n])
        den = da * db
        return USeries(val, [Fraction(x, den) for x in convolve(a, b, n)])

    def __repr__(self) -> str:
        if self.is_zero():
            return f"O(u^{self.order})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.valuation + i
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*u^{e}")
        return " + ".join(parts) + f" + O(u^{self.order})"


def _stride(a: Sequence[Fraction]) -> int:
    """The gcd of the i >= 1 with a[i] nonzero, or len(a) if there is none.

    With d = _stride(a), a[i] vanishes unless d divides i, so a[::d] holds
    the same series in x = u^d.
    """
    d = 0
    for i in range(1, len(a)):
        if a[i]:
            d = gcd(d, i)
            if d == 1:
                break
    return d or len(a)


def _spread(h: list[Fraction], d: int, n: int) -> list[Fraction]:
    """The first n coefficients in u of the series h in x = u^d."""
    out = [Fraction(0)] * n
    out[::d] = h
    return out


def even_row(f: USeries, size: int) -> tuple[list[int], int]:
    """f read in x = u^2 as a row: numerators of x^0..x^(size-1) over one positive den.

    Entry i is [u^(2i)] f; odd powers of u are not read.  The row is in
    lowest terms (`numerators`).  f must know every power read: its
    valuation at least 0, and u^(2 size - 2) below its order.
    """
    if f.valuation < 0 or 2 * size - 1 > f.order:
        raise ValueError(f"a row reads u^0..u^{2 * size - 2}, a series from u^{f.valuation} "
                         f"below u^{f.order}")
    lead = [Fraction(0)] * ((f.valuation + 1) // 2)  # the x-powers below the valuation
    return numerators((lead + list(f.coeffs[f.valuation % 2::2]))[:size])


def even_series(nums: list[int], den: int, order: int) -> USeries:
    """The row nums / den of x^0, x^1, ..., x = u^2, as a `USeries` through u^(order-1).

    The row holds exactly the even exponents below ``order``: (order + 1) // 2 entries.
    """
    return USeries(0, _spread([Fraction(x, den) for x in nums], 2, order))


def _push(nums: list[int], den: int, q: Fraction, weight: int) -> int:
    """Append weight * q to the numerators nums over den; return their new denominator.

    The denominator is the running lcm of the pushed denominators, so the
    numerators already in nums are rescaled only when q brings a new factor.
    """
    new = lcm(den, q.denominator)
    if new != den:
        nums[:] = [x * (new // den) for x in nums]
    nums.append(weight * q.numerator * (new // q.denominator))
    return new


def inv(f: USeries) -> USeries:
    """Multiplicative inverse; relative precision is preserved."""
    return pow_int(f, -1)


def pow_int(f: USeries, k: int) -> USeries:
    """Integer power by J.C.P. Miller's recurrence; relative precision is preserved.

    With f = u^v (f_0 + f_1 u + ...), h = f^k / u^{kv} satisfies
    m f_0 h_m = sum_{i=1..m} ((k+1) i - m) f_i h_{m-i}
    (Knuth, TAOCP vol. 2, 4.7), for negative k as well.  When f_i vanishes
    unless d divides i, the recurrence runs in x = u^d on f_0, f_d, f_2d, ...
    and h is nonzero only at multiples of d.
    """
    if k == 0:
        # relative precision window, like every other power
        return USeries.one(f.order - f.valuation)
    if f.is_zero():
        if k > 0:
            return USeries.zero(k * f.order)
        raise ZeroSeries(f"cannot invert a series with no nonzero coefficient below order {f.order}")
    d = _stride(f.coeffs)
    a = f.coeffs[::d]  # canonical form: the leading coefficient a[0] is nonzero
    h = [a[0] ** k]
    for m in range(1, len(a)):
        acc = sum(((k + 1) * i - m) * a[i] * h[m - i] for i in range(1, m + 1) if a[i])
        h.append(acc / (m * a[0]))  # a[0] is a Fraction, so an empty sum gives Fraction(0)
    return USeries(k * f.valuation, _spread(h, d, len(f.coeffs)))


def exp(f: USeries) -> USeries:
    """Exponential of a series with zero constant term and no negative powers.

    Runs in x = u^d, with d the gcd of the exponents of f's nonzero terms.
    """
    if f.valuation < 0:
        raise NonzeroConstantTerm("exp() requires a series without negative powers")
    if f.valuation == 0:
        raise NonzeroConstantTerm(
            f"exp() requires zero constant term, got {f.coeffs[0] if f.coeffs else 'unknown'}"
        )
    full = [Fraction(0)] * f.valuation + list(f.coeffs)  # full[i] = [u^i] f
    d = _stride(full)
    a, den_a = numerators(full[::d])  # a[i] / den_a = [x^i] f
    ia = [i * x for i, x in enumerate(a)]
    g = [Fraction(1)]  # g' = f' g: m g_m = sum_{i=1..m} i f_i g_{m-i}
    nums, den = [1], 1  # nums[j] / den = g_j
    for m in range(1, len(a)):
        acc = sum(ia[i] * nums[m - i] for i in range(1, m + 1) if ia[i])
        g.append(Fraction(acc, m * den_a * den))
        den = _push(nums, den, g[-1], 1)
    return USeries(0, _spread(g, d, f.order))


def log(f: USeries) -> USeries:
    """Logarithm of a series with constant term one.

    Runs in x = u^d, with d the gcd of the exponents of f's nonconstant terms.
    """
    if not (f.valuation == 0 and f.coeffs and f.coeffs[0] == 1):
        got = repr(f.coefficient(0)) if f.order > 0 else "unknown"
        raise ConstantTermNotOne(f"log() requires constant term exactly one, got {got}")
    d = _stride(f.coeffs)  # the valuation is 0, so coeffs[i] = [u^i] f
    a, den_a = numerators(f.coeffs[::d])  # a[i] / den_a = [x^i] f, so a[0] = den_a
    ls = [Fraction(0)]  # f L' = f': m L_m = m f_m - sum_{i=1..m-1} (m-i) f_i L_{m-i}
    w, den = [0], 1  # w[j] / den = j L_j
    for m in range(1, len(a)):
        acc = m * a[m] * den - sum(a[i] * w[m - i] for i in range(1, m) if a[i])
        ls.append(Fraction(acc, m * den_a * den))
        den = _push(w, den, ls[-1], m)
    return USeries(0, _spread(ls, d, len(f.coeffs)))


def sinc_half(order: int) -> USeries:
    r"""Expansion of sin(u/2)/(u/2) = \sum_k (-1)^k u^{2k} / (4^k (2k+1)!).

    Only even exponents appear; the constant term is 1.  With order <= 0
    the result is the zero-knowledge series (no coefficient determined).
    order must be an int, or TypeError names it.
    """
    if _int_arg("order", order) <= 0:
        return USeries.zero(order)
    x_row = [Fraction((-1) ** k, 4**k * factorial(2 * k + 1)) for k in range((order + 1) // 2)]
    return USeries(0, _spread(x_row, 2, order))
