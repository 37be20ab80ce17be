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
built once per vertex table in integers and reduced to one least common
denominator per table, and a per-(g0, n) combination in integer
arithmetic.  For fixed (g0, n) each coefficient is a polynomial in the
divisor weight B = 3(2 g0 - 2) + c: the combination builds it once, from
the marked sums with the binomials C(n, k1) (once per n) and the psi
falling products of `_bracket_factors`, and evaluates it at every c by
Horner, for a grid and for a single `correction_raw_sum` alike.
`verify_raw_equals_closed` builds the tables once for its whole grid and
each closed side S^k once per exponent k, and asserts exact
coefficientwise agreement of the two routes, compared in integers: a
cell's numerators against the closed side's, by cross-multiplication of
the two denominators.  The inner coefficient identity it rests on,
`eq_sum`, has the same design: its basis t1^a1 t2^a2 is built once per
call in integers, and for fixed m1 each coefficient is a polynomial in m2,
evaluated at every m2 by Horner (`_eq_cells`).  `verify_eq_sum` compares
it with closed cells formed by `convolve`.  A failing cell names its first
mismatch from the integers it compared.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

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


def _eq_basis(order: int):
    """The products t1^a1 t2^a2 below ``order`` that `eq_sum` combines.

    Returns (rows, den): row a2, entry a1 is a tuple of (exponent,
    numerator over den) pairs with the zeros left out.  Every factor has
    valuation >= 0, so the coefficients of a product below ``order``
    depend only on those of its factors below ``order``; each power is
    truncated there rather than carrying the extra relative precision a
    product of valuation-2 series would otherwise keep.
    """
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
    return rows, den


def eq_sum(m1, m2, order: int) -> USeries:
    r"""The bracket-reduction double sum

        sum_{a1, a2 >= 0} (m2^{a2} / a2!) (ff(m1 - a2, a1) / a1!) t1^{a1} t2^{a2}

    with t1 = S^2 - 1 and t2 = S^2 log S, truncated at ``order``.  It
    collapses to (1 + t1)^{m1} exp(m2 log S) = S^{2 m1 + m2}; the closed
    form is what `verify_eq_sum` tests against.  This call builds the
    basis t1^{a1} t2^{a2} for itself and forms its one cell with `_eq_cells`,
    as the grid does for all of its cells.  m1 and m2 may be rational.
    """
    if order <= 0:
        return USeries.zero(order)
    ((nums, den),) = _eq_cells(_eq_basis(order), m1, (m2,), order)
    return _from_numerators(nums, den)


def _eq_cells(basis, m1, m2s: Iterable, order: int) -> list[tuple[list[int], int]]:
    """Per m2 in m2s, `eq_sum(m1, m2, order)` from `_eq_basis(order)` as (numerators, den).

    With m1 = p1/q1, m2 = p2/q2 and amax = (order - 1) // 2, the term a1, a2
    times (amax! q1^amax)(amax! q2^amax) has the integer coefficient
    p2^a2 q2^(amax - a2) (amax! / a2!) q1^(amax - a1) (amax! / a1!)
    prod_{i < a1} (p1 - (a2 + i) q1).  So for fixed m1 each u-coefficient is
    a homogeneous polynomial in (p2, q2), summed over the basis once and
    evaluated at each m2 by Horner.
    """
    rows, den = basis
    amax = len(rows) - 1
    p1, q1 = Fraction(m1).as_integer_ratio()
    top = factorial(amax)
    w1 = [q1 ** (amax - a) * (top // factorial(a)) for a in range(amax + 1)]
    polys = []  # polys[a2][k]: the coefficient of p2^a2 q2^(amax - a2) in u^k
    for a2, row in enumerate(rows):
        poly = [0] * order
        ff = top // factorial(a2)
        for a1, term in enumerate(row):
            if not ff:
                break  # ff(m1 - a2, a1) has reached 0 and stays there
            coef = ff * w1[a1]
            for k, b in term:
                poly[k] += coef * b
            ff *= p1 - (a2 + a1) * q1
        polys.append(poly)
    cells = []
    for m2 in m2s:
        p2, q2 = Fraction(m2).as_integer_ratio()
        acc, q_pow = polys[amax], 1
        for poly in reversed(polys[:amax]):
            q_pow *= q2
            acc = [x * p2 + y * q_pow for x, y in zip(acc, poly)]
        cells.append((acc, den * w1[0] * top * q_pow))
    return cells


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


def _raw_tables(vertex: VertexData, order: int):
    """The vertex-only sums of the raw route below ``order``, built once per grid.

    Returns (marked, inserted, den) with, for added genus s <= (order-1)//2,

        marked[s][k1]       = sum over lists g1 of genus s with k1 parts of
                              multinomial(k1, repeats) * prod mu1[g_i]
        inserted[s][k2][j]  = sum over lists g2 of genus s with k2 parts of
                              by_psi[j] / prod(repeats!),
        by_psi[j]           = [x^j] prod_i (mu0_psi[g_i] x + mu0_div[g_i])

    (j counts the insertions read as -psi, all `_bracket_factors` needs of
    them) as integer numerators: marked over its least common denominator,
    inserted over its own, and den the product of the two.  Marked and
    insertion lists of genus s are the same partitions of s, so one pass
    fills both.  The pass runs on integers: the vertex values are scaled
    over the lcm D of their denominators, so the lists with k parts sum
    to an integer over D^k, and with the weight k! / prod(repeats!) =
    multinomial(k, repeats) over D^k k! for the insertion lists.  Only the
    finished rows are reduced, to the least common denominators.
    """
    dmax = (order - 1) // 2
    genera = range(1, dmax + 1)
    missing = [g for g in genera
               if g not in vertex.mu1 or g not in vertex.mu0_psi or g not in vertex.mu0_div]
    if missing:
        raise ValueError(f"vertex data lacks genera {missing} needed at order {order}")
    den_v = lcm(*(table[g].denominator for table in vertex for g in genera))
    mu1, mu0_psi, mu0_div = ({g: table[g].numerator * (den_v // table[g].denominator)
                              for g in genera} for table in vertex)
    marked, inserted = [], []
    for s in range(dmax + 1):
        m_row = [0] * (s + 1)
        i_row = [[0] * (k + 1) for k in range(s + 1)]
        for parts in descending_partitions(s):
            m_prod = prod(mu1[gi] for gi in parts)
            by_psi = [1]
            for gi in parts:
                psi, div = mu0_psi[gi], mu0_div[gi]
                nxt = [b * div for b in by_psi] + [0]
                for j, b in enumerate(by_psi):
                    nxt[j + 1] += b * psi
                by_psi = nxt
            k = len(parts)
            weight = multinomial(k, multiplicities(parts))
            m_row[k] += weight * m_prod
            by_k = i_row[k]
            for j, b in enumerate(by_psi):
                by_k[j] += weight * b
        marked.append(m_row)
        inserted.append(i_row)
    m_q = [den_v**k for k in range(dmax + 1)]
    i_q = [q * factorial(k) for k, q in enumerate(m_q)]
    # x / q in lowest terms has denominator q // gcd(x, q)
    m_den = lcm(*(m_q[k] // gcd(x, m_q[k]) for row in marked for k, x in enumerate(row)))
    i_den = lcm(*(i_q[k] // gcd(x, i_q[k])
                  for row in inserted for k, by_k in enumerate(row) for x in by_k))
    return (tuple(tuple(x * m_den // m_q[k] for k, x in enumerate(row)) for row in marked),
            tuple(tuple(tuple(x * i_den // i_q[k] for x in by_k) for k, by_k in enumerate(row))
                  for row in inserted),
            m_den * i_den)


def _marked_sums(tables, n: int) -> list[int]:
    """marked[s] = sum_{k1} C(n, k1) marked[s][k1]: the marked lists with at most n parts."""
    return [sum(comb(n, k) * x for k, x in enumerate(row)) for row in tables[0]]


def _bracket_factors(g0: int, n: int, kmax: int) -> list[list[int]]:
    """Row k, entry j: the multiplier of stripping j (-psi) insertions from a bracket.

    The bracket holds n ordinary markings and k insertion markings.  Each
    psi removal contributes -(2 g0 - 2 + m), where m counts the markings
    remaining after it, so entry j is the falling product
    prod_{i < j} -(2 g0 - 2 + n + k - 1 - i), each entry from the one
    before.  The k - j divisor removals that follow contribute the divisor
    weight 3 (2 g0 - 2) + c each; `_raw_cells` keeps that weight as the
    variable of a polynomial.  The base bracket is normalized to 1.
    """
    rows = []
    for k in range(kmax + 1):
        row = [1]
        for i in range(k):
            row.append(row[-1] * -(2 * g0 - 2 + n + k - 1 - i))
        rows.append(row)
    return rows


def _raw_cells(tables, marked: list[int], g0: int, n: int, cs: Iterable[int],
               order: int) -> list[list[int]]:
    """The cells (g0, n, c) of the raw route for every c in cs, from `_raw_tables`.

    ``marked`` is `_marked_sums(tables, n)`.  With the divisor weight
    B = 3 (2 g0 - 2) + c, inserted[t] = sum_{k2, j} inserted[t][k2][j]
    factors[k2][j] B^(k2 - j) is a polynomial in B, and so is the u^{2 delta}
    coefficient sum_s marked[s] inserted[delta - s].  Those polynomials are
    built once per (g0, n) and evaluated at each c by Horner.  Returns, per
    c, the numerators of u^0..u^(order-1) over the tables' denominator.
    """
    dmax = (order - 1) // 2
    factors = _bracket_factors(g0, n, dmax)
    inserted = []  # inserted[t][e]: the coefficient of B^e
    for row in tables[1]:
        poly = [0] * len(row)
        for k, (by_k, f_k) in enumerate(zip(row, factors)):
            for j, (x, f) in enumerate(zip(by_k, f_k)):
                poly[k - j] += x * f
        inserted.append(poly)
    polys = []
    for delta in range(dmax + 1):
        poly = [0] * (delta + 1)
        for s in range(delta + 1):
            m = marked[s]
            if m:
                for e, x in enumerate(inserted[delta - s]):
                    poly[e] += m * x
        polys.append(poly)
    cells = []
    for c in cs:
        b = 3 * (2 * g0 - 2) + c
        coeffs = [0] * order
        for delta, poly in enumerate(polys):
            acc = 0
            for x in reversed(poly):
                acc = acc * b + x
            coeffs[2 * delta] = acc
        cells.append(coeffs)
    return cells


def correction_raw_sum(g0: int, n: int, c: int, order: int,
                       vertex: VertexData | None = None) -> USeries:
    """The wall-crossing multiplier series over the genus-g0 bracket, raw route.

    marked[s] sums the marked lists g1 of genus s (at most n entries,
    multiplier mu_{g,1} each, orbit count C(n, k1) * multinomial over
    repeats); inserted[t] sums the insertion lists g2 of genus t (each
    bracket stripped by `_bracket_factors` and the divisor weight, weighted
    1 / prod(repeats!)).  The u^{2 delta} coefficient is
    sum_s marked[s] inserted[delta - s], which is 1 at delta = 0.  Equals
    S^{2 g0 - 2 + c}; `verify_raw_equals_closed` is the arbiter.  Without
    ``vertex`` the standard table is built for this call.  A grid builds
    the vertex table and its vertex-only sums once and evaluates them per
    (g0, n) at all its c; this call builds both for itself, for one c.
    """
    if g0 < 0 or n < 0:
        raise ValueError("g0 and n must be nonnegative")
    if order <= 0:
        return USeries.zero(order)
    if vertex is None:
        vertex = VertexData.standard((order - 1) // 2)
    tables = _raw_tables(vertex, order)
    (nums,) = _raw_cells(tables, _marked_sums(tables, n), g0, n, (c,), order)
    return _from_numerators(nums, tables[2])


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


def _cell(key, got: list[int], den: int, want: list[int], want_den: int) -> GridCell:
    """Compare got / den with want / want_den, both dense from u^0, by cross-multiplication.

    A failing cell names its first mismatching exponent.
    """
    for k, (x, y) in enumerate(zip(got, want, strict=True)):
        if x * want_den != y * den:
            return GridCell(key, False,
                            f"u^{k}: got {Fraction(x, den)}, want {Fraction(y, want_den)}")
    return GridCell(key, True)


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
    den = tables[2]
    marked = [_marked_sums(tables, n) for n in range(n_max + 1)]
    cells = []
    for g0 in range(g0_max + 1):
        for n in range(n_max + 1):
            for c, got in zip(cs, _raw_cells(tables, marked[n], g0, n, cs, internal)):
                cells.append(_cell((g0, n, c), got, den, *closed[2 * g0 - 2 + c]))
    return GridReport("raw-sum vs closed-form multiplier", tuple(cells))


def verify_eq_sum(m1_range: Iterable[int] = range(-6, 1),
                  m2_range: Iterable[int] = range(-6, 13),
                  order: int = 12) -> GridReport:
    """Check eq_sum(m1, m2) == (1 + t1)^{m1} exp(m2 log S) on a grid.

    Coefficients are compared through exponent ``order`` inclusive, in
    integers.  Each power (1 + t1)^{m1} = S^{2 m1} and each exp(m2 log S)
    is built once, as numerators; a closed cell is their `convolve`.  The
    basis of `eq_sum` is built once for the grid, and `_eq_cells` forms
    one row of m2 per m1.
    """
    internal = order + 1
    s = sinc_half(internal)
    ls = log(s)
    s2 = s * s
    m2s = sorted(set(int(m) for m in m2_range))
    exps = [numerators(exp(ls.scale(m2)).coeffs) for m2 in m2s]
    basis = _eq_basis(internal)
    cells = []
    for m1 in sorted(set(int(m) for m in m1_range)):
        p, p_den = numerators(pow_int(s2, m1).coeffs)
        for m2, (e, e_den), (got, den) in zip(m2s, exps, _eq_cells(basis, m1, m2s, internal)):
            cells.append(_cell((m1, m2), got, den, convolve(p, e, internal), p_den * e_den))
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
