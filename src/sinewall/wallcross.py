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
built once per vertex table by one integer walk over the partitions and
reduced to one least common denominator per table, and a per-(g0, n)
combination in integer arithmetic.  For fixed (g0, n) each coefficient is
a polynomial in the divisor weight B = 3(2 g0 - 2) + c: the combination
builds it once, from the marked sums with the binomials C(n, k1) (once per
n) and the psi falling products of `_bracket_factors`, and evaluates it at
every c by Horner, for a grid and for a single `correction_raw_sum` alike.
`verify_raw_equals_closed` builds the tables once for its whole grid and
asserts exact coefficientwise agreement of the two routes, compared in
integers: a cell's numerators against the closed side's, by
cross-multiplication of the two denominators.  The inner coefficient
identity it rests on, `eq_sum`, has the same design: its basis t1^a1 t2^a2
is built once per call by integer `convolve`s, and for fixed m1 each
coefficient is a polynomial in m2, evaluated at every m2 by Horner
(`_eq_cells`).  Both grids read their closed sides from one table of sine
powers per grid (`_sine_powers`): S^k for exactly the exponents the grid
reads, with no `log` or `exp`.  The eq basis alone reads `log S`.  The
raw route uses no series kernel.

Every series the grids compare is even in u, so their helpers work in
x = u^2 alone: a grid turns its order into the number of x-coefficients it
compares once, every helper takes and returns integer numerators of
x^0..x^(size-1), and only `eq_sum` and `correction_raw_sum` spread a result
back to u.  The powers of S, S^-1, t1 and t2 are each a `_ladder`, one
integer `convolve` per power.  A failing cell names its first mismatch as a
power of u, from the integers it compared.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from . import hodge
from .partitions import descending_walk
from .series import USeries, convolve, log, numerators, pow_int, sinc_half


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


def _ladder(step: list[int], step_den: int, top: int, size: int) -> list[tuple[list[int], int]]:
    """(step / step_den)^j for j = 0..top, each as numerators of x^0..x^(size-1) over one den.

    Every power is one integer `convolve` from the power before, reduced by
    the gcd of its numerators and its denominator.  Entry 0 is 1.
    """
    powers = [([int(i == 0) for i in range(size)], 1)]
    for _ in range(top):
        nums, den = powers[-1]
        nums, den = convolve(nums, step, size), den * step_den
        g = gcd(den, *nums)
        powers.append(([x // g for x in nums], den // g))
    return powers


def _sine_powers(ks: Iterable[int], size: int) -> dict[int, tuple[list[int], int]]:
    """S^k for every k in ks, as (numerators of x^0..x^(size-1), one denominator), x = u^2.

    The closed side of both identity grids.  S and S^-1 are the only series
    built, by `sinc_half` and one `pow_int` (only when some k < 0); each
    power is a rung of a `_ladder` on S or S^-1.  No `log` or `exp`, which
    the eq basis reads, enters here.
    """
    ks = set(ks)
    s = sinc_half(2 * size + 1)  # through x^size, so that S^-1 exists at size 0
    up = _ladder(*numerators(s.coeffs[::2]), max(ks, default=0), size)
    low = min(ks, default=0)
    down = _ladder(*numerators(pow_int(s, -1).coeffs[::2]), -low, size) if low < 0 else up
    return {k: (up if k >= 0 else down)[abs(k)] for k in ks}


def _eq_basis(size: int):
    """The products t1^a1 t2^a2 of x^0..x^(size-1), x = u^2, that `eq_sum` combines.

    Returns (rows, den): row a2, entry a1 is a tuple of (exponent in x,
    numerator over den) pairs with the zeros left out.  Every factor has
    valuation >= 0, so the coefficients of a product below x^size depend
    only on those of its factors below x^size: t1 = S^2 - 1 and
    t2 = S^2 log S have valuation 1, their powers are `_ladder`s and each
    product is one `convolve`.
    """
    s = sinc_half(2 * size + 1)  # through x^size, so that log S exists at size 0
    s_nums, s_den = numerators(s.coeffs[::2])
    log_nums, log_den = numerators([0, *log(s).coeffs[::2]])  # log S starts at x^1
    s2 = convolve(s_nums, s_nums, size)
    t1 = [0, *s2[1:]]  # S^2 has constant term 1
    t2 = convolve(s2, log_nums, size)
    t1_pows = _ladder(t1, s_den**2, size - 1, size)
    t2_pows = _ladder(t2, s_den**2 * log_den, size - 1, size)
    terms = [[(convolve(a, b, size), da * db) for a, da in t1_pows[:size - a2]]
             for a2, (b, db) in enumerate(t2_pows)]
    # x / d in lowest terms has denominator d // gcd(x, d)
    den = lcm(*(d // gcd(x, d) for row in terms for nums, d in row for x in nums))
    rows = tuple(tuple(tuple((i, x * den // d) for i, x in enumerate(nums) if x)
                       for nums, d in row)
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
    size = (order + 1) // 2
    ((nums, den),) = _eq_cells(_eq_basis(size), m1, (m2,), size)
    return _from_numerators(nums, den, order)


def _eq_cells(basis, m1, m2s: Iterable, size: int) -> list[tuple[list[int], int]]:
    """Per m2 in m2s, `eq_sum(m1, m2)` from `_eq_basis(size)` as (x-numerators, den).

    With m1 = p1/q1, m2 = p2/q2 and amax = size - 1, the term a1, a2
    times (amax! q1^amax)(amax! q2^amax) has the integer coefficient
    p2^a2 q2^(amax - a2) (amax! / a2!) q1^(amax - a1) (amax! / a1!)
    prod_{i < a1} (p1 - (a2 + i) q1).  So for fixed m1 each x-coefficient is
    a homogeneous polynomial in (p2, q2), summed over the basis once and
    evaluated at each m2 by Horner.
    """
    rows, den = basis
    amax = len(rows) - 1
    p1, q1 = Fraction(m1).as_integer_ratio()
    top = factorial(amax)
    w1 = [q1 ** (amax - a) * (top // factorial(a)) for a in range(amax + 1)]
    polys = []  # polys[a2][i]: the coefficient of p2^a2 q2^(amax - a2) in x^i
    for a2, row in enumerate(rows):
        poly = [0] * size
        ff = top // factorial(a2)
        for a1, term in enumerate(row):
            if not ff:
                break  # ff(m1 - a2, a1) has reached 0 and stays there
            coef = ff * w1[a1]
            for i, b in term:
                poly[i] += coef * b
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


def _from_numerators(nums: list[int], den: int, order: int) -> USeries:
    """The series sum_i (nums[i] / den) u^(2i), truncated at ``order`` > 0."""
    coeffs = [0] * order
    coeffs[::2] = [Fraction(x, den) for x in nums]
    return USeries(0, coeffs)


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


def _raw_tables(vertex: VertexData, size: int):
    """The vertex-only sums of the raw route for added genus s < ``size``, built once per grid.

    Returns (marked, inserted, den) with, for added genus s < size,

        marked[s][k1]       = sum over lists g1 of genus s with k1 parts of
                              multinomial(k1, repeats) * prod mu1[g_i]
        inserted[s][k2][j]  = sum over lists g2 of genus s with k2 parts of
                              by_psi[j] / prod(repeats!),
        by_psi[j]           = [x^j] prod_i (mu0_psi[g_i] x + mu0_div[g_i])

    (j counts the insertions read as -psi, all `_bracket_factors` needs of
    them) as integer numerators: marked over its least common denominator,
    inserted over its own, and den the product of the two.  Marked and
    insertion lists of genus s are the same partitions of s, so one walk
    fills both, each list adding one part to its prefix's sums, in integers:
    the vertex values are scaled over the lcm D of their denominators, so
    the lists with k parts sum to an integer over D^k, and with the weight
    k! / prod(repeats!) = multinomial(k, repeats) over D^k k! for the
    insertion lists.  Only the finished rows are reduced, to the least
    common denominators.
    """
    genera = range(1, size)
    missing = [g for g in genera if any(g not in table for table in vertex)]
    if missing:
        raise ValueError(f"vertex data lacks genera {missing}, needed through genus {size - 1}")
    den_v = lcm(*(table[g].denominator for table in vertex for g in genera))
    mu1, mu0_psi, mu0_div = ({g: table[g].numerator * (den_v // table[g].denominator)
                              for g in genera} for table in vertex)
    marked = [[0] * (s + 1) for s in range(size)]
    inserted = [[[0] * (k + 1) for k in range(s + 1)] for s in range(size)]
    states = [(0, 1, [1], 1)]  # per list length: genus, prod mu1, by_psi, weight
    for parts in descending_walk(size - 1):
        k = len(parts)
        if k:  # extend the state of parts[:-1], the last list of length k - 1
            gi = parts[-1]
            s, m_prod, by_psi, weight = states[k - 1]
            psi, div = mu0_psi[gi], mu0_div[gi]
            by_psi = [b * div + a * psi for a, b in zip([0] + by_psi, by_psi + [0])]
            # gi ends a run of k - parts.index(gi) equal parts
            states[k:] = [(s + gi, m_prod * mu1[gi], by_psi, weight * k // (k - parts.index(gi)))]
        s, m_prod, by_psi, weight = states[k]
        marked[s][k] += weight * m_prod
        inserted[s][k] = [x + weight * b for x, b in zip(inserted[s][k], by_psi)]
    m_q = [den_v**k for k in range(size)]
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


def _raw_cells(tables, marked: list[int], g0: int, n: int, cs: Iterable[int]) -> list[list[int]]:
    """The cells (g0, n, c) of the raw route for every c in cs, from `_raw_tables`.

    ``marked`` is `_marked_sums(tables, n)`.  With the divisor weight
    B = 3 (2 g0 - 2) + c, inserted[t] = sum_{k2, j} inserted[t][k2][j]
    factors[k2][j] B^(k2 - j) is a polynomial in B, and so is the u^{2 delta}
    coefficient sum_s marked[s] inserted[delta - s].  Those polynomials are
    built once per (g0, n) and evaluated at each c by Horner.  Returns, per
    c, the numerators of x^delta = u^(2 delta) for every added genus delta
    of the tables, over the tables' denominator.
    """
    factors = _bracket_factors(g0, n, len(marked) - 1)
    inserted = []  # inserted[t][e]: the coefficient of B^e
    for row in tables[1]:
        poly = [0] * len(row)
        for k, (by_k, f_k) in enumerate(zip(row, factors)):
            for j, (x, f) in enumerate(zip(by_k, f_k)):
                poly[k - j] += x * f
        inserted.append(poly)
    polys = []
    for delta in range(len(marked)):
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
        coeffs = []
        for poly in polys:
            acc = 0
            for x in reversed(poly):
                acc = acc * b + x
            coeffs.append(acc)
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
    size = (order + 1) // 2
    if vertex is None:
        vertex = VertexData.standard(size - 1)
    tables = _raw_tables(vertex, size)
    (nums,) = _raw_cells(tables, _marked_sums(tables, n), g0, n, (c,))
    return _from_numerators(nums, tables[2], order)


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
    """Compare got / den with want / want_den, both dense in x = u^2, by cross-multiplication.

    A failing cell names its first mismatch, at x^k, as u^(2k).
    """
    for k, (x, y) in enumerate(zip(got, want, strict=True)):
        if x * want_den != y * den:
            return GridCell(key, False,
                            f"u^{2 * k}: got {Fraction(x, den)}, want {Fraction(y, want_den)}")
    return GridCell(key, True)


def verify_raw_equals_closed(g0_max: int = 3, n_max: int = 4,
                             c_range: Iterable[int] = range(-2, 7),
                             order: int = 10,
                             vertex: VertexData | None = None) -> GridReport:
    """Check correction_raw_sum == S^(2 g0 - 2 + c) on a (g0, n, c) grid.

    Coefficients are compared for every exponent up to ``order``
    inclusive, in integers: each cell's numerators against the closed
    side's by cross-multiplication.  Failures become report cells, never
    exceptions.  Without ``vertex`` the standard table is built once for
    the whole grid.  The closed sides come from one table of sine powers
    (`_sine_powers`), one entry per exponent k = 2 g0 - 2 + c.
    """
    size = max(order // 2 + 1, 0)  # x^0..x^(size-1), x = u^2, reach u^order
    cs = sorted(set(int(c) for c in c_range))
    if vertex is None:
        vertex = VertexData.standard(size - 1)
    tables = _raw_tables(vertex, size)
    closed = _sine_powers({2 * g0 - 2 + c for g0 in range(g0_max + 1) for c in cs}, size)
    den = tables[2]
    marked = [_marked_sums(tables, n) for n in range(n_max + 1)]
    cells = []
    for g0 in range(g0_max + 1):
        for n in range(n_max + 1):
            for c, got in zip(cs, _raw_cells(tables, marked[n], g0, n, cs)):
                cells.append(_cell((g0, n, c), got, den, *closed[2 * g0 - 2 + c]))
    return GridReport("raw-sum vs closed-form multiplier", tuple(cells))


def verify_eq_sum(m1_range: Iterable[int] = range(-6, 1),
                  m2_range: Iterable[int] = range(-6, 13),
                  order: int = 12) -> GridReport:
    """Check eq_sum(m1, m2) == (1 + t1)^{m1} exp(m2 log S) = S^{2 m1 + m2} on a grid.

    Coefficients are compared through exponent ``order`` inclusive, in
    integers.  The closed cells come from one table of sine powers
    (`_sine_powers`), one entry per exponent 2 m1 + m2.  The basis of
    `eq_sum` is built once for the grid, and `_eq_cells` forms one row of
    m2 per m1.
    """
    size = max(order // 2 + 1, 0)  # x^0..x^(size-1), x = u^2, reach u^order
    m1s = sorted(set(int(m) for m in m1_range))
    m2s = sorted(set(int(m) for m in m2_range))
    closed = _sine_powers({2 * m1 + m2 for m1 in m1s for m2 in m2s}, size)
    basis = _eq_basis(size)
    cells = []
    for m1 in m1s:
        for m2, (got, den) in zip(m2s, _eq_cells(basis, m1, m2s, size)):
            cells.append(_cell((m1, m2), got, den, *closed[2 * m1 + m2]))
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
