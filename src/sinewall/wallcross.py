r"""The sine-power wall-crossing transform and its combinatorial cross-check.

The closed form: with S = sin(u/2)/(u/2) and c the pairing of the curve
class with c1(X),

    sum_g GW_g u^{2g-2}  =  sum_g uGW_g u^{2g-2} S^{2g-2+c},

so GW_h = sum_{g <= h} uGW_g [u^{2(h-g)}] S^{2g-2+c}.  The transform is
triangular with unit diagonal ([u^0] S^k = 1), hence exactly invertible.

The raw form: `correction_raw_sum` rebuilds, per root genus g0, the full
multiplier series from first principles.  The added genus splits into a
marked list, whose parts each contribute a standalone multiplier mu_{g,1}
at a marked point, and an insertion list, whose parts each contribute a
bracket insertion mu_{g,0}(-psi + H), evaluated by stripping psi
insertions (dilaton: each removal contributes
-(2 g0 - 2 + #remaining markings)) and then divisor insertions (each
3H + c1 contributes 3(2 g0 - 2) + c).  The two lists are chosen
independently, so each coefficient is a convolution of a marked-list sum
and an insertion-list sum.  Those sums split into vertex-only tables (by
genus and list length, and for insertions by the number of psi parts),
built once per vertex table as integer numerators over a common
denominator, and a per-cell combination with the binomials C(n, k1) and
`reduce_bracket` in integer arithmetic.  `verify_raw_equals_closed`
builds the tables once for its whole grid and each closed side S^k once
per exponent k, and asserts exact coefficientwise agreement of the two
routes, compared in integers: a cell's numerators against the closed
side's, by cross-multiplication of the two denominators.  The inner
coefficient identity it rests on is exposed separately as `eq_sum`, whose
products t1^a1 t2^a2 are likewise cached per order as integer numerators;
`verify_eq_sum` compares it the same way with closed cells formed by
`convolve`.  Only a failing cell is turned back into series, to name its
first mismatch.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Iterable, Mapping

from . import hodge
from .partitions import descending_partitions, multinomial, multiplicities
from .series import USeries, convolve, exp, log, numerators, pow_int, sinc_half


class MissingGenus(ValueError):
    """Raised when an inverse transform meets a gap below g_max."""


class Kind(Enum):
    GW = "gw"
    UGW = "ugw"
    GV = "gv"


class GenusTable(namedtuple("GenusTable", "kind c primitive values g_max")):
    """Per-class invariants indexed by genus.

    Genera above g_max are unknown, not zero.  ``c`` is the pairing of the
    curve class with c1(X) and ``primitive`` records whether the class is
    primitive; both travel with the table unchanged.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, c: int, primitive: bool, values: Mapping[int, Fraction],
                g_max: int):
        if g_max < 0:
            raise ValueError("g_max must be nonnegative")
        clean = {}
        for g, v in values.items():
            gi = int(g)
            if gi != g:
                raise ValueError(f"genus {g!r} is not an integer")
            if gi < 0 or gi > g_max:
                raise ValueError(f"genus {gi} outside 0..{g_max}")
            if isinstance(v, float):
                raise ValueError("float values are not exact; pass Fraction or int")
            clean[gi] = Fraction(v)
        return super().__new__(cls, kind, c, primitive, clean, g_max)

    def value(self, g: int) -> Fraction:
        """The genus-g entry, with absent genera read as zero."""
        return self.values.get(g, Fraction(0))

    def dense(self) -> dict[int, Fraction]:
        """All genera 0..g_max, absent ones as zero."""
        return {g: self.value(g) for g in range(self.g_max + 1)}


def sine_factor(g: int, c: int, order: int) -> USeries:
    """The multiplier S^(2g - 2 + c) with S = sin(u/2)/(u/2), truncated."""
    if order <= 0:
        return USeries.zero(order)
    return pow_int(sinc_half(order), 2 * g - 2 + c)


# order -> (rows, den): the products t1^a1 t2^a2 that eq_sum combines, row
# a2, entry a1, each a tuple of (exponent, numerator over den) pairs with the
# zeros left out
_EQ_BASIS: dict[int, tuple] = {}


def _eq_basis(order: int):
    """The products t1^a1 t2^a2 below ``order``, built once per order.

    Every factor has valuation >= 0, so the coefficients of a product
    below ``order`` depend only on those of its factors below ``order``;
    each power is truncated there rather than carrying the extra relative
    precision a product of valuation-2 series would otherwise keep.  The
    coefficients are stored as integer numerators over one common
    denominator.
    """
    basis = _EQ_BASIS.get(order)
    if basis is None:
        s = sinc_half(order)
        s2 = s * s
        t1 = s2 - USeries.one(order)
        t2 = s2 * log(s)
        amax = (order - 1) // 2  # t1, t2 have valuation 2
        t1_pows = [USeries.one(order)]
        t2_pows = [USeries.one(order)]
        for _ in range(amax):
            t1_pows.append((t1_pows[-1] * t1).truncate(order))
            t2_pows.append((t2_pows[-1] * t2).truncate(order))
        terms = [[(t1_pows[a1] * t2_pows[a2]).truncate(order) for a1 in range(amax + 1 - a2)]
                 for a2 in range(amax + 1)]
        den = lcm(*(b.denominator for row in terms for term in row for b in term.coeffs))
        rows = tuple(tuple(tuple((k, b.numerator * (den // b.denominator))
                                 for k, b in enumerate(term.coeffs, term.valuation) if b)
                           for term in row)
                     for row in terms)
        basis = _EQ_BASIS[order] = (rows, den)
    return basis


def eq_sum(m1, m2, order: int) -> USeries:
    r"""The bracket-reduction double sum

        sum_{a1, a2 >= 0} (m2^{a2} / a2!) (ff(m1 - a2, a1) / a1!) t1^{a1} t2^{a2}

    with t1 = S^2 - 1 and t2 = S^2 log S, truncated at ``order``.  It
    collapses to (1 + t1)^{m1} exp(m2 log S) = S^{2 m1 + m2}; the closed
    form is what `verify_eq_sum` tests against.  The products
    t1^{a1} t2^{a2} do not depend on (m1, m2): they are built once per
    order and kept in a module cache as integer numerators, so a call only
    forms the scalar coefficients, brings them to one denominator and sums
    integers.
    """
    if order <= 0:
        return USeries.zero(order)
    return _from_numerators(*_eq_numerators(m1, m2, order))


def _eq_numerators(m1, m2, order: int) -> tuple[list[int], int]:
    """`eq_sum` for order >= 1 as integer numerators u^0..u^(order-1) over one denominator."""
    m1 = Fraction(m1)
    m2 = Fraction(m2)
    p1, q1 = m1.numerator, m1.denominator
    p2, q2 = m2.numerator, m2.denominator
    rows, den = _eq_basis(order)
    amax = len(rows) - 1
    # with m1 = p1/q1, m2 = p2/q2, the coefficient (m2^a2 / a2!) (ff(m1 - a2, a1) / a1!)
    # times w2[0] w1[0] = (amax! q2^amax)(amax! q1^amax) is the integer
    # p2^a2 w2[a2] * prod_{i < a1} (p1 - (a2 + i) q1) * w1[a1]
    top = factorial(amax)
    w1 = [q1 ** (amax - a) * (top // factorial(a)) for a in range(amax + 1)]
    w2 = [q2 ** (amax - a) * (top // factorial(a)) for a in range(amax + 1)]
    out = [0] * order
    lead = 1  # p2^a2
    for a2, row in enumerate(rows):
        ff = lead * w2[a2]
        for a1, term in enumerate(row):
            if ff:
                coef = ff * w1[a1]
                for k, b in term:
                    out[k] += coef * b
            ff *= p1 - (a2 + a1) * q1
        lead *= p2
    return out, den * w1[0] * w2[0]


def _from_numerators(nums: list[int], den: int) -> USeries:
    """The series sum_i (nums[i] / den) u^i."""
    return USeries(0, [Fraction(x, den) for x in nums])


class VertexData(namedtuple("VertexData", "mu1 mu0_psi mu0_div")):
    """Per-genus insertion coefficients feeding the raw wall-crossing sum.

    mu1[g] is the standalone marked-point multiplier mu_{g,1}; mu0_psi[g]
    and mu0_div[g] are the coefficients of -psi and of 3H + c1 in the
    bracket insertion mu_{g,0}(-psi + H).  `standard` fills them from the
    closed forms; tests inject perturbed copies.
    """

    __slots__ = ()

    @classmethod
    def standard(cls, g_top: int) -> VertexData:
        mu1, psi, div = {}, {}, {}
        for g in range(1, g_top + 1):
            mv = hodge.mu_g0(g)
            mu1[g] = hodge.mu_g1(g)
            psi[g] = mv.a1
            div[g] = mv.a_c1
        return cls(mu1, psi, div)

    def perturbed(self, field: str, genus: int, delta) -> VertexData:
        """Copy with one coefficient shifted by delta (testing hook)."""
        table = dict(getattr(self, field))
        table[genus] = table.get(genus, Fraction(0)) + Fraction(delta)
        return self._replace(**{field: table})


def reduce_bracket(g0: int, n: int, n_psi: int, n_div: int, c: int) -> int:
    """Multiplier from stripping n_psi (-psi) and n_div (3H + c1) insertions.

    The bracket starts with n ordinary markings plus the n_psi + n_div
    insertion markings.  Each psi removal contributes -(2 g0 - 2 + m)
    where m counts the markings remaining after it; each divisor removal
    then contributes 3 (2 g0 - 2) + c.  The base bracket is normalized
    to 1, so the result is a bare multiplier.
    """
    total = 1
    m = n + n_psi + n_div
    for _ in range(n_psi):
        total *= -(2 * g0 - 2 + m - 1)
        m -= 1
    return total * (3 * (2 * g0 - 2) + c) ** n_div


def _raw_tables(vertex: VertexData, order: int):
    """The vertex-only sums of the raw route below ``order``, built once per grid.

    Returns (marked, inserted, den) with, for added genus s <= (order-1)//2,

        marked[s][k1]       = sum over lists g1 of genus s with k1 parts of
                              multinomial(k1, repeats) * prod mu1[g_i]
        inserted[s][k2][j]  = sum over lists g2 of genus s with k2 parts of
                              by_psi[j] / prod(repeats!),
        by_psi[j]           = [x^j] prod_i (mu0_psi[g_i] x + mu0_div[g_i])

    (j counts the insertions read as -psi, all `reduce_bracket` needs of
    them) as integer numerators: marked over one common denominator,
    inserted over another, and den the product of the two.  Marked and
    insertion lists of genus s are the same partitions of s, so one pass
    fills both.
    """
    dmax = (order - 1) // 2
    missing = [g for g in range(1, dmax + 1)
               if g not in vertex.mu1 or g not in vertex.mu0_psi or g not in vertex.mu0_div]
    if missing:
        raise ValueError(f"vertex data lacks genera {missing} needed at order {order}")
    marked, inserted = [], []
    for s in range(dmax + 1):
        m_row = [Fraction(0)] * (s + 1)
        i_row = [[Fraction(0)] * (k + 1) for k in range(s + 1)]
        for parts in descending_partitions(s):
            k, repeats = len(parts), multiplicities(parts)
            m_row[k] += multinomial(k, repeats) * prod(vertex.mu1[gi] for gi in parts)
            by_psi = [Fraction(1)]
            for gi in parts:
                psi, div = vertex.mu0_psi[gi], vertex.mu0_div[gi]
                nxt = [b * div for b in by_psi] + [Fraction(0)]
                for j, b in enumerate(by_psi):
                    nxt[j + 1] += b * psi
                by_psi = nxt
            symmetry = prod(map(factorial, repeats))
            for j, b in enumerate(by_psi):
                i_row[k][j] += b / symmetry
        marked.append(m_row)
        inserted.append(i_row)
    m_den = lcm(*(x.denominator for row in marked for x in row))
    i_den = lcm(*(x.denominator for row in inserted for by_k in row for x in by_k))
    return (tuple(tuple(x.numerator * (m_den // x.denominator) for x in row) for row in marked),
            tuple(tuple(tuple(x.numerator * (i_den // x.denominator) for x in by_k)
                        for by_k in row) for row in inserted),
            m_den * i_den)


def _raw_sum_from(tables, g0: int, n: int, c: int, order: int) -> tuple[list[int], int]:
    """One (g0, n, c) cell of the raw route from `_raw_tables`, in integers.

    marked[s] = sum_{k1} C(n, k1) marked[s][k1] (C(n, k1) = 0 past n, so
    at most n marked points); inserted[t] = sum_{k2, j} inserted[t][k2][j]
    reduce_bracket(g0, n, j, k2 - j, c); the u^{2 delta} coefficient is
    sum_s marked[s] inserted[delta - s].  Returns the numerators of
    u^0..u^(order-1) and their common denominator.
    """
    marked_t, inserted_t, den = tables
    dmax = (order - 1) // 2
    reduced = [[reduce_bracket(g0, n, j, k - j, c) for j in range(k + 1)]
               for k in range(dmax + 1)]
    marked = [sum(comb(n, k) * x for k, x in enumerate(marked_t[s])) for s in range(dmax + 1)]
    inserted = [sum(x * r for by_k, r_k in zip(inserted_t[t], reduced) for x, r in zip(by_k, r_k))
                for t in range(dmax + 1)]
    coeffs = [0] * order
    for delta in range(dmax + 1):
        coeffs[2 * delta] = sum(marked[s] * inserted[delta - s] for s in range(delta + 1))
    return coeffs, den


def correction_raw_sum(g0: int, n: int, c: int, order: int,
                       vertex: VertexData | None = None) -> USeries:
    """The wall-crossing multiplier series over the genus-g0 bracket, raw route.

    marked[s] sums the marked lists g1 of genus s (at most n entries,
    multiplier mu_{g,1} each, orbit count C(n, k1) * multinomial over
    repeats); inserted[t] sums the insertion lists g2 of genus t (each
    bracket stripped by `reduce_bracket`, weighted 1 / prod(repeats!)).  The
    u^{2 delta} coefficient is sum_s marked[s] inserted[delta - s], which
    is 1 at delta = 0.  Equals S^{2 g0 - 2 + c}; `verify_raw_equals_closed`
    is the arbiter.  Without ``vertex`` the standard table is built for
    this call.  A grid builds the vertex table and its vertex-only sums
    once and combines them per cell; this call builds both for itself.
    """
    if g0 < 0 or n < 0:
        raise ValueError("g0 and n must be nonnegative")
    if order <= 0:
        return USeries.zero(order)
    if vertex is None:
        vertex = VertexData.standard((order - 1) // 2)
    return _from_numerators(*_raw_sum_from(_raw_tables(vertex, order), g0, n, c, order))


class GridCell(namedtuple("GridCell", "key passed detail", defaults=("",))):
    """One verification cell: its parameter key and outcome."""

    __slots__ = ()


class GridReport(namedtuple("GridReport", "name cells")):
    """Deterministic, lexicographically ordered verification results."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def first_failure(self) -> GridCell | None:
        return next((cell for cell in self.cells if not cell.passed), None)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({len(self.cells)} cells)"
        if not self.passed:
            bad = self.first_failure
            line += f"; first failure at {bad.key}: {bad.detail}"
        return line


def _first_mismatch(got: USeries, want: USeries, order: int) -> str:
    for k in range(order + 1):
        a, b = got.coefficient(k), want.coefficient(k)
        if a != b:
            return f"u^{k}: got {a}, want {b}"
    return "series metadata differ"


def _cell(key, got: list[int], den: int, want: list[int], want_den: int, order: int) -> GridCell:
    """Compare got / den with want / want_den, both dense from u^0, by cross-multiplication.

    Only a failing cell builds the two series, for its first mismatch.
    """
    if len(got) == len(want) and all(x * want_den == y * den for x, y in zip(got, want)):
        return GridCell(key, True)
    return GridCell(key, False, _first_mismatch(_from_numerators(got, den),
                                                _from_numerators(want, want_den), order))


def verify_raw_equals_closed(g0_max: int = 3, n_max: int = 4,
                             c_range: Iterable[int] = range(-2, 7),
                             order: int = 10,
                             vertex: VertexData | None = None) -> GridReport:
    """Check correction_raw_sum == sine_factor on a (g0, n, c) grid.

    Coefficients are compared for every exponent up to ``order``
    inclusive, in integers: each cell's numerators against the closed
    side's by cross-multiplication.  Failures become report cells, never
    exceptions.  Without ``vertex`` the standard table is built once for
    the whole grid, and each closed side S^k is computed once per
    exponent k = 2 g0 - 2 + c.
    """
    internal = order + 1
    cs = sorted(set(int(c) for c in c_range))
    if vertex is None:
        vertex = VertexData.standard((internal - 1) // 2)
    tables = _raw_tables(vertex, internal)
    closed = {}  # k -> (numerators, denominator) of S^k, whose valuation is 0
    for g0 in range(g0_max + 1):
        for c in cs:
            k = 2 * g0 - 2 + c
            if k not in closed:
                closed[k] = numerators(sine_factor(g0, c, internal).coeffs)
    cells = []
    for g0 in range(g0_max + 1):
        for n in range(n_max + 1):
            for c in cs:
                got, den = _raw_sum_from(tables, g0, n, c, internal)
                cells.append(_cell((g0, n, c), got, den, *closed[2 * g0 - 2 + c], order))
    return GridReport("raw-sum vs closed-form multiplier", tuple(cells))


def verify_eq_sum(m1_range: Iterable[int] = range(-6, 1),
                  m2_range: Iterable[int] = range(-6, 13),
                  order: int = 12) -> GridReport:
    """Check eq_sum(m1, m2) == (1 + t1)^{m1} exp(m2 log S) on a grid.

    Coefficients are compared through exponent ``order`` inclusive, in
    integers.  Each power (1 + t1)^{m1} = S^{2 m1} and each exp(m2 log S)
    is built once, as numerators; a closed cell is their `convolve`.
    """
    internal = order + 1
    s = sinc_half(internal)
    ls = log(s)
    s2 = s * s
    m2s = sorted(set(int(m) for m in m2_range))
    exp_by_m2 = {m2: numerators(exp(ls.scale(m2)).coeffs) for m2 in m2s}
    cells = []
    for m1 in sorted(set(int(m) for m in m1_range)):
        p, p_den = numerators(pow_int(s2, m1).coeffs)
        for m2 in m2s:
            e, e_den = exp_by_m2[m2]
            got, den = _eq_numerators(m1, m2, internal)
            cells.append(_cell((m1, m2), got, den, convolve(p, e, internal), p_den * e_den,
                               order))
    return GridReport("bracket-reduction sum vs closed form", tuple(cells))


def _transform_matrix(c: int, g_max: int) -> list[list[Fraction]]:
    """Rows M[h][g] = [u^{2(h-g)}] S^{2g-2+c}, g <= h <= g_max: GW_h = sum_g uGW_g M[h][g]."""
    factors = [sine_factor(g, c, 2 * g_max + 2) for g in range(g_max + 1)]
    return [[factors[g].coefficient(2 * (h - g)) for g in range(h + 1)]
            for h in range(g_max + 1)]


def gw_from_ugw(t: GenusTable) -> GenusTable:
    """Forward transform: GW_h = sum_{g <= h} uGW_g [u^{2(h-g)}] S^{2g-2+c}.

    Absent genera are read as zero.  The result is dense on 0..g_max.
    """
    if t.kind is not Kind.UGW:
        raise ValueError(f"gw_from_ugw expects a uGW table, got {t.kind.value}")
    matrix = _transform_matrix(t.c, t.g_max)
    out = {h: sum((t.value(g) * m for g, m in enumerate(row)), Fraction(0))
           for h, row in enumerate(matrix)}
    return GenusTable(Kind.GW, t.c, t.primitive, out, t.g_max)


def ugw_from_gw(t: GenusTable) -> GenusTable:
    """Inverse transform: the unique uGW table mapping to t under gw_from_ugw.

    The transform is triangular with unit diagonal, so inversion is exact.
    Genera below the minimal present genus are taken as exact zeros; a gap
    between that genus and g_max raises MissingGenus.
    """
    if t.kind is not Kind.GW:
        raise ValueError(f"ugw_from_gw expects a GW table, got {t.kind.value}")
    out = {g: Fraction(0) for g in range(t.g_max + 1)}
    if t.values:
        g_min = min(t.values)
        gaps = [g for g in range(g_min, t.g_max + 1) if g not in t.values]
        if gaps:
            raise MissingGenus(f"genera {gaps} absent below g_max={t.g_max}")
        matrix = _transform_matrix(t.c, t.g_max)
        for h in range(g_min, t.g_max + 1):
            acc = t.values[h]
            for g in range(h):
                if out[g]:
                    acc -= out[g] * matrix[h][g]
            out[h] = acc
    return GenusTable(Kind.UGW, t.c, t.primitive, out, t.g_max)
