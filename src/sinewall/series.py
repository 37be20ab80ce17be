r"""Exact truncated power series in one variable u.

All arithmetic is exact.  A series is stored densely: ``coeffs[i]`` is the
coefficient of ``u**(valuation + i)``, and every exponent at or above
``order`` is unknown.  The truncation order is exclusive, so a series of
order 6 carries no information about the coefficient of ``u**6``.  The
invariant ``order == valuation + len(coeffs)`` always holds; the zero
series is stored with empty ``coeffs`` and ``valuation == order``, which
makes equality testing decidable.

Binary operations keep only coefficients both operands determine:
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
Products go through `convolve` on integer numerators over one common
denominator (`numerators`), so a coefficient of a product costs integer
multiplications and one `Fraction` at the end.  ``exp`` and ``log`` sum each
step of their recurrence the same way: the input as numerators over its
least common denominator, the result so far as numerators over the running
lcm of its denominators (`_push`), and one `Fraction` per new coefficient.
``pow_int`` still sums each step in `Fraction`.  On a copy, integer
numerators for its weights took the benchmark's transform-deep workload
from 20.3 to 34.0 jobs/s and its median job from 22.0 to 14.9 ms, but
its peak RSS rose by 8.6%, 10.3% and 7.5% in three runs, against a 10%
bound: the benchmark keeps every job's result, so its memory grows with
the number of jobs a run completes.  The integer form waits until the
benchmark measures memory independently of the job count (ROADMAP item 1).

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
    """Integer numerators over the least common denominator: coeffs[i] == ints[i] / den."""
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

    def scale(self, value: int | Fraction) -> USeries:
        c = _rational(value)
        return USeries(self.valuation, [c * a for a in self.coeffs])

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

    def __mul__(self, other: object) -> USeries:
        if isinstance(other, USeries):
            order = min(self.order + other.valuation, other.order + self.valuation)
            val = self.valuation + other.valuation
            n = order - val  # == min of the two relative precisions
            if n <= 0:
                return USeries.zero(order)
            a, da = numerators(self.coeffs[:n])
            b, db = numerators(other.coeffs[:n])
            den = da * db
            return USeries(val, [Fraction(x, den) for x in convolve(a, b, n)])
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
    out = [Fraction(0)] * order
    for k in range(0, (order - 1) // 2 + 1):
        out[2 * k] = Fraction((-1) ** k, 4**k * factorial(2 * k + 1))
    return USeries(0, out)
