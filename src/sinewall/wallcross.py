r"""The sine-power wall-crossing transform and its combinatorial cross-check.

The closed form: with S = sin(u/2)/(u/2) and c the pairing of the curve
class with c1(X),

    sum_g GW_g u^{2g-2}  =  sum_g uGW_g u^{2g-2} S^{2g-2+c},

so GW_h = sum_{g <= h} uGW_g [u^{2(h-g)}] S^{2g-2+c}.  The transform is
triangular with unit diagonal ([u^0] S^k = 1), hence exactly invertible,
and Lagrange inversion of w = u^2 S^2 writes the inverse from the same
powers of S: with k = 2h - 2 + c,

    uGW_h = GW_h + sum_{g < h} GW_g (1 - 2(h-g)/k) [u^{2(h-g)}] S^{-k},

where (1 - 2(h-g)/k) [u^{2(h-g)}] S^{-k} reads 2(h-g) [u^{2(h-g)}] log S
when k = 0.  Both directions build their matrix from one S and apply it
to the table the same way (`_apply`); nothing is solved.

The raw form: `correction_raw_sum` rebuilds, per root genus g0, the full
multiplier series from first principles.  The added genus splits into a
marked list, whose parts each contribute a standalone multiplier mu_{g,1}
at a marked point, and an insertion list, whose parts each contribute a
bracket insertion mu_{g,0}(-psi + H), evaluated by stripping psi
insertions (dilaton: each removal contributes
-(2 g0 - 2 + #remaining markings)) and then divisor insertions (each
3H + c1 contributes B = 3(2 g0 - 2) + c).  The two lists are chosen
independently, so the series is the product of a marked-list sum and an
insertion-list sum, each counting a list of k parts once per ordering.
With M = sum_g mu1[g] x^g, the marked lists with at most n parts sum to
(1 + M)^n by the binomial theorem: rung n of a `_ladder` on 1 + M, which
one cell reads by repeated squaring (`_rung`).
Stripping j psi and i divisor insertions from the bracket b = 2 g0 - 2 + n
contributes ff(-b - i, j) B^i, with ff(x, j) = x (x - 1) ... (x - j + 1),
and the insertion lists with j psi parts and i divisor parts sum to
Psi^j Delta^i / (j! i!), the vertex series of mu0_psi and mu0_div.  So
the insertion sum is the bracket-reduction double sum of `eq_sum` at
m1 = -b and m2 = B, for any vertex values: the raw route reads the eq
route's polynomials in m2 at m1 = -b (`_eq_polys`), evaluates them at B
(`_horner`) and convolves the result with the 1 + M rung.
`verify_grids`, the two identity grids of `verify-identities`, asserts
exact coefficientwise agreement with the closed form, compared in
integers: each closed row is put over a cell's denominator once, so a cell
is one comparison of whole rows (`_grid_cells`), and `_cell`
cross-multiplies any other cell and names a failing cell's first mismatch.
Its eq grid checks the inner identity, `eq_sum`: t1 = S^2 - 1 and
t2 = S^2 log S are the standard vertex's Psi and Delta, so its basis
t1^a1 t2^a2 is the `_vertex_powers` table, and for fixed m1 each
coefficient is a polynomial in m2 (`_eq_polys`), evaluated at every m2.
Each distinct m1 of the two grids gets one polynomial build per call.
Both grids read their closed sides from one table of sine powers
(`_sine_powers`): S^k for every exponent the grids read, with no `log`,
`exp` or vertex value.  It and the eq basis are built once, at the eq
grid's size, and the raw grid reads both cut to its own (`_cut`).
`eq_sum` and `correction_raw_sum` take the same steps for their one cell.
Neither computed side builds S: both read one build of the vertex values,
and only the raw route reads mu1.

Every series the grids compare is even in u, so their helpers work in
x = u^2 alone: a grid turns its order into the number of x-coefficients it
compares once, every helper takes and returns integer numerators of
x^0..x^(size-1), and only `eq_sum` and `correction_raw_sum` spread a result
back to u (`series._spread`).  The powers of S, S^-1, 1 + M, Psi and Delta
are each a `_ladder`, one integer `convolve` per power.  A failing cell
names its first mismatch as a power of u, from the integers it compared.
Each grid reports as a `GridReport` of `GridCell`s (`_record`), the report
type the expansion checks of `hodge` share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm

from . import hodge
from ._record import GridCell, GridReport, Record
from .series import USeries, _int_arg, _spread, convolve, log, numerators, pow_int, sinc_half

__all__ = [
    "GenusTable", "GridCell", "GridReport", "Kind", "MissingGenus", "VertexData",
    "correction_raw_sum", "eq_sum", "gw_from_ugw", "sine_factor", "ugw_from_gw", "verify_grids",
]


class MissingGenus(ValueError):
    """Raised when an inverse transform meets a gw table without every genus 0..g_max."""


class Kind(Enum):
    GW = "gw"
    UGW = "ugw"
    GV = "gv"


class GenusTable(Record, fields="kind c primitive values g_max"):
    """Per-class invariants indexed by genus.

    Genera above g_max are unknown, not zero.  ``c`` is the pairing of the
    curve class with c1(X) and ``primitive`` records whether the class is
    primitive; both travel with the table unchanged.  ``kind`` must be a
    `Kind`, ``c`` and ``g_max`` ints and ``primitive`` a bool: anything else
    is refused with TypeError, since a float c or g_max would reach the
    series kernels, a string kind the transforms, and a truthy non-bool
    would pass the GV gate.  So are a genus that is not an int, even one
    equal to an int, and a value that is neither an int nor a Fraction; a
    float value is refused with ValueError, as inexact.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, c: int, primitive: bool, values: Mapping[int, Fraction],
                g_max: int):
        if not isinstance(kind, Kind):
            raise TypeError(f"kind must be a Kind, got {kind!r}")
        if _int_arg("g_max", g_max) < 0:
            raise ValueError("g_max must be nonnegative")
        _int_arg("c", c)
        if not isinstance(primitive, bool):
            raise TypeError(f"primitive must be a bool, got {primitive!r}")
        clean = {}
        for g, v in values.items():
            _int_arg("genus", g)
            if g < 0 or g > g_max:
                raise ValueError(f"genus {g} outside 0..{g_max}")
            if isinstance(v, float):
                raise ValueError("float values are not exact; pass Fraction or int")
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"value at genus {g} must be an int or a Fraction, got {v!r}")
            clean[g] = Fraction(v)
        return super().__new__(cls, kind, c, primitive, clean, g_max)

    def value(self, g: int) -> Fraction:
        """The genus-g entry, with absent genera read as zero."""
        return self.values.get(g, Fraction(0))

    def dense(self) -> dict[int, Fraction]:
        """All genera 0..g_max, absent ones as zero."""
        return {g: self.value(g) for g in range(self.g_max + 1)}


def sine_factor(g: int, c: int, order: int) -> USeries:
    """The multiplier S^(2g - 2 + c) with S = sin(u/2)/(u/2), truncated; g, c and order are ints."""
    _int_arg("g", g)
    _int_arg("c", c)
    if _int_arg("order", order) <= 0:
        return USeries.zero(order)
    return pow_int(sinc_half(order), 2 * g - 2 + c)


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with the gcd of the numerators and the denominator divided out."""
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g


def _ladder(step: list[int], step_den: int, top: int, size: int) -> list[tuple[list[int], int]]:
    """(step / step_den)^j for j = 0..top, each as numerators of x^0..x^(size-1) over one den.

    Every power is one integer `convolve` from the power before, put in
    lowest terms (`_lowest`).  Entry 0 is 1.
    """
    powers = [([int(i == 0) for i in range(size)], 1)]
    for _ in range(top):
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


def _sine_powers(ks: Iterable[int], size: int) -> dict[int, tuple[list[int], int]]:
    """S^k for every k in ks, as (numerators of x^0..x^(size-1), one denominator), x = u^2.

    The closed side of both identity grids.  S and S^-1 are the only series
    built, by `sinc_half` and one `pow_int` (only when some k < 0); each
    power is a rung of a `_ladder` on S or S^-1.  No `log`, `exp` or vertex
    value, which both computed sides read, enters here.
    """
    ks = set(ks)
    s = sinc_half(2 * size + 1)  # through x^size, so that S^-1 exists at size 0
    up = _ladder(*numerators(s.coeffs[::2]), max(ks, default=0), size)
    low = min(ks, default=0)
    down = _ladder(*numerators(pow_int(s, -1).coeffs[::2]), -low, size) if low < 0 else up
    return {k: (up if k >= 0 else down)[abs(k)] for k in ks}


def _cut(table, size: int) -> dict[int, tuple[list[int], int]]:
    """A `_sine_powers` table cut to x^0..x^(size-1), each row put back in lowest terms."""
    return {k: _lowest(nums[:size], den) for k, (nums, den) in table.items()}


def _eq_basis(mixed):
    """The products t1^a1 t2^a2 that `eq_sum` combines, from the `_vertex_powers` table ``mixed``.

    Returns (rows, den): row a2, entry a1 is a tuple of (exponent in x,
    numerator over den) pairs with the zeros left out, x = u^2, through the
    size of ``mixed``.  t1 = S^2 - 1 = sum_g mu_{g,1} x^g and
    t2 = S^2 log S = sum_g b_g x^g are the standard vertex's series Psi and
    Delta, so the basis is its table of Psi^a1 Delta^a2, put over one
    denominator; the raw route reads the same basis through `_eq_polys`.
    """
    den = lcm(*(d // gcd(d, *nums) for row in mixed for nums, d in row))  # as in `_lowest`
    rows = tuple(tuple(tuple((i, x * den // d) for i, x in enumerate(nums) if x)
                       for nums, d in row)
                 for row in mixed)
    return rows, den


def eq_sum(m1: int, m2: int, order: int) -> USeries:
    r"""The bracket-reduction double sum

        sum_{a1, a2 >= 0} (m2^{a2} / a2!) (ff(m1 - a2, a1) / a1!) t1^{a1} t2^{a2}

    with t1 = S^2 - 1 and t2 = S^2 log S, the standard vertex's series Psi
    and Delta, truncated at ``order``.  It collapses to
    (1 + t1)^{m1} exp(m2 log S) = S^{2 m1 + m2}; the closed form is what
    the eq grid of `verify_grids` tests against.  This call builds the basis
    t1^{a1} t2^{a2} (`_eq_basis`) for itself, its polynomials in m2 at m1
    (`_eq_polys`) and evaluates them at m2 (`_horner`), as the grid does for
    all of its cells.  m1, m2 and order must be ints, or TypeError names them.
    """
    _int_arg("m1", m1)
    _int_arg("m2", m2)
    if _int_arg("order", order) <= 0:
        return USeries.zero(order)
    size = (order + 1) // 2
    polys, den = _eq_polys(_eq_basis(_vertex_powers(VertexData.standard(size - 1), size)), m1, size)
    return USeries(0, _spread([Fraction(x, den) for x in _horner(polys, m2)], 2, order))


def _eq_polys(basis, m1: int, size: int) -> tuple[list[list[int]], int]:
    """The x-coefficients of `eq_sum(m1, m2)` as polynomials in m2: (polys, den), x = u^2.

    polys[i] holds the integer coefficients of m2^0, m2^1, ... in x^i, for
    i < size, over den, from an `_eq_basis`.  With amax the basis's top
    exponent, the term a1, a2 times (amax!)^2 has the integer coefficient
    m2^a2 (amax! / a2!) (amax! / a1!) prod_{i < a1} (m1 - a2 - i), so each
    polynomial is summed over the basis once.  t1 and t2 both start at x^1,
    so the coefficient of x^i has degree at most i in m2; its top zero
    coefficients are dropped.
    """
    rows, den = basis
    amax = len(rows) - 1
    top = factorial(amax)
    w1 = [top // factorial(a) for a in range(amax + 1)]
    polys = [[0] * (amax + 1) for _ in range(size)]  # polys[i][a2]: of m2^a2 in x^i
    for a2, row in enumerate(rows):
        ff = top // factorial(a2)
        for a1, term in enumerate(row):
            if not ff:
                break  # ff(m1 - a2, a1) has reached 0 and stays there
            coef = ff * w1[a1]
            for i, b in term:
                polys[i][a2] += coef * b
            ff *= m1 - a2 - a1
    for poly in polys:  # so that Horner skips the top zero coefficients
        while poly and not poly[-1]:
            poly.pop()
    return polys, den * top * top


def _horner(polys: list[list[int]], x: int) -> list[int]:
    """Each polynomial of ``polys``, coefficients from degree 0 up, evaluated at x by Horner."""
    values = []
    for poly in polys:
        acc = 0
        for y in reversed(poly):
            acc = acc * x + y
        values.append(acc)
    return values


class VertexData(Record, fields="mu1 mu0_psi mu0_div"):
    """Per-genus insertion coefficients feeding the raw wall-crossing sum.

    mu1[g] is the standalone marked-point multiplier mu_{g,1}; mu0_psi[g]
    and mu0_div[g] are the coefficients of -psi and of 3H + c1 in the
    bracket insertion mu_{g,0}(-psi + H).  `standard` fills them from the
    closed forms; tests inject perturbed copies.  As in `GenusTable`, a
    genus that is not an int (a bool, or a float equal to an int) and a
    value that is neither an int nor a Fraction are refused with TypeError,
    and a float value with ValueError, as inexact.
    """

    __slots__ = ()

    def __new__(cls, mu1: Mapping[int, Fraction], mu0_psi: Mapping[int, Fraction],
                mu0_div: Mapping[int, Fraction]):
        for name, table in zip(cls._fields, (mu1, mu0_psi, mu0_div)):
            for g, v in table.items():
                _int_arg("genus", g)
                if isinstance(v, float):
                    raise ValueError(f"{name} at genus {g}: float values are not exact; "
                                     "pass Fraction or int")
                if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                    raise TypeError(f"{name} at genus {g} must be an int or a Fraction, "
                                    f"got {v!r}")
        return super().__new__(cls, mu1, mu0_psi, mu0_div)

    @classmethod
    def standard(cls, g_top: int) -> VertexData:
        """Genera 1..g_top from one build of the vertex values (`hodge.mu_values`)."""
        values = hodge.mu_values(g_top)
        a = {g: mv.a1 for g, mv in enumerate(values, 1)}
        return cls(a, dict(a), {g: mv.a_c1 for g, mv in enumerate(values, 1)})

    def perturbed(self, field: str, genus: int, delta) -> VertexData:
        """Copy with one coefficient shifted by delta (testing hook)."""
        table = dict(getattr(self, field))
        table[genus] = table.get(genus, Fraction(0)) + Fraction(delta)
        return self._replace(**{field: table})


def _series_powers(table: Mapping[int, Fraction], size: int) -> list[tuple[list[int], int]]:
    """The `_ladder` rungs F^k, k < size, of F = sum_g table[g] t^g, g = 1..size-1."""
    return _ladder(*numerators([0, *(table[g] for g in range(1, size))]), size - 1, size)


def _vertex_powers(vertex: VertexData, size: int):
    """The table of vertex-series powers that both identity grids read, through t^(size-1).

    With Psi and Delta the series sum_g table[g] t^g of mu0_psi and
    mu0_div, returns mixed[i][j] = Psi^j Delta^i for i + j < size, one
    `convolve` of a Psi rung and a Delta rung, each as (numerators of
    t^0..t^(size-1), den).  Every table of ``vertex``, mu1 included, must
    hold genera 1..size-1, or ValueError names the missing ones.
    """
    missing = [g for g in range(1, size) if any(g not in table for table in vertex)]
    if missing:
        raise ValueError(f"vertex data lacks genera {missing}, needed through genus {size - 1}")
    psi_pows, delta_pows = (_series_powers(table, size) for table in vertex[1:])
    return [[(convolve(p, d, size), p_den * d_den) for p, p_den in psi_pows[:size - i]]
            for i, (d, d_den) in enumerate(delta_pows)]


def correction_raw_sum(g0: int, n: int, c: int, order: int,
                       vertex: VertexData | None = None) -> USeries:
    """The wall-crossing multiplier series over the genus-g0 bracket, raw route.

    The marked lists with at most n parts sum to (1 + M)^n, M the series of
    mu1, and the insertion lists, each bracket stripped of its psi and then
    its divisor insertions, to the polynomials `_eq_polys` at
    m1 = -(2 g0 - 2 + n), evaluated at the divisor weight B = 3(2 g0 - 2) + c
    (module docstring).  The series is their product, which is 1 at u^0.
    Equals S^{2 g0 - 2 + c}; the raw grid of `verify_grids` is the arbiter.
    Without ``vertex`` the standard table is built for this call.  A grid
    takes the same three steps, with one polynomial build per bracket and
    one ladder on 1 + M for all of its cells; this call reads its one rung
    by repeated squaring (`_rung`), so its cost grows with log n.
    g0, n, c and order must be ints, or TypeError names them.
    """
    if _int_arg("g0", g0) < 0 or _int_arg("n", n) < 0:
        raise ValueError("g0 and n must be nonnegative")
    _int_arg("c", c)
    if _int_arg("order", order) <= 0:
        return USeries.zero(order)
    size = (order + 1) // 2
    if vertex is None:
        vertex = VertexData.standard(size - 1)
    polys, den = _eq_polys(_eq_basis(_vertex_powers(vertex, size)), -(2 * g0 - 2 + n), size)
    marked, m_den = _rung(*numerators([1, *(vertex.mu1[g] for g in range(1, size))]), n, size)
    nums = convolve(marked, _horner(polys, 3 * (2 * g0 - 2) + c), size)
    return USeries(0, _spread([Fraction(x, den * m_den) for x in nums], 2, order))


def _cell(key, got: list[int], den: int, want: list[int], want_den: int) -> GridCell:
    """Compare got / den with want / want_den, both dense in x = u^2, by cross-multiplication.

    A failing cell names its first mismatch, at x^k, as u^(2k).
    """
    for k, (x, y) in enumerate(zip(got, want, strict=True)):
        if x * want_den != y * den:
            return GridCell(key, False,
                            f"u^{2 * k}: got {Fraction(x, den)}, want {Fraction(y, want_den)}")
    return GridCell(key, True, "")


def _grid_cells(computed: Iterable, closed: Mapping[int, tuple[list[int], int]]
                ) -> tuple[GridCell, ...]:
    """One GridCell per (key, k, got, den) in ``computed``: got / den against closed[k].

    A grid's cells share a few denominators, and a closed row in lowest
    terms divides the denominator of every cell equal to it, so each row is
    put over each such denominator once and a cell is one comparison of
    whole rows.  Every other cell goes through `_cell`, which
    cross-multiplies and names the first mismatch.
    """
    scaled = {}  # (k, den): closed[k] over den, or None when den is not a multiple of its den
    cells = []
    for key, k, got, den in computed:
        if (k, den) not in scaled:
            want, want_den = closed[k]
            q, r = divmod(den, want_den)
            scaled[k, den] = None if r else [y * q for y in want]
        cells.append(GridCell(key, True, "") if got == scaled[k, den]
                     else _cell(key, got, den, *closed[k]))
    return tuple(cells)


def verify_grids(order: int, vertex: VertexData | None = None) -> tuple[GridReport, GridReport]:
    """The two identity grids of `verify-identities`: (raw grid, eq grid).

    The raw grid checks correction_raw_sum == S^(2 g0 - 2 + c) for g0 in
    0..3, n in 0..4 and c in -2..6, through u^order.  The eq grid checks
    eq_sum(m1, m2) == (1 + t1)^{m1} exp(m2 log S) = S^{2 m1 + m2} for m1 in
    -6..0 and m2 in -6..12, through u^(order + 2).  Coefficients are
    compared in integers, and failures become report cells, never
    exceptions.  The eq grid's exponents 2 m1 + m2 = -18..12 hold the raw
    grid's 2 g0 - 2 + c = -4..10, so one table of sine powers and one eq
    basis, both at the eq grid's size, serve both grids; the raw grid reads
    them cut to its own.  The polynomials in m2 are built once per m1 the
    grids read, the eq grid's m1 and the raw grid's -(2 g0 - 2 + n), and the
    1 + M ladder once, for the raw grid.  ``vertex`` feeds both computed
    sides (the eq grid reads its Psi and Delta, not mu1); without it the
    standard table is built once.  order must be an int.
    """
    raw_size, eq_size = max(_int_arg("order", order) // 2 + 1, 0), max(order // 2 + 2, 0)
    g0s, ns, cs = range(4), range(5), range(-2, 7)
    m1s, m2s = range(-6, 1), range(-6, 13)
    closed = _sine_powers({2 * m1 + m2 for m1 in m1s for m2 in m2s}, eq_size)
    if vertex is None:
        vertex = VertexData.standard(eq_size - 1)
    basis = _eq_basis(_vertex_powers(vertex, eq_size))
    polys = {m1: _eq_polys(basis, m1, eq_size)
             for m1 in {*m1s, *(-(2 * g0 - 2 + n) for g0 in g0s for n in ns)}}

    marked = _ladder(*numerators([1, *(vertex.mu1[g] for g in range(1, raw_size))]), max(ns),
                     raw_size)
    computed = []
    for g0 in g0s:
        for n in ns:
            (m_nums, m_den), (inserted, den) = marked[n], polys[-(2 * g0 - 2 + n)]
            inserted = inserted[:raw_size]
            computed.extend(((g0, n, c), 2 * g0 - 2 + c,
                             convolve(m_nums, _horner(inserted, 3 * (2 * g0 - 2) + c), raw_size),
                             den * m_den) for c in cs)
    raw = GridReport("raw-sum vs closed-form multiplier",
                     _grid_cells(computed, _cut(closed, raw_size)))

    computed = (((m1, m2), 2 * m1 + m2, _horner(polys[m1][0], m2), polys[m1][1])
                for m1 in m1s for m2 in m2s)
    return raw, GridReport("bracket-reduction sum vs closed form", _grid_cells(computed, closed))


def _transform_matrix(c: int, g_max: int) -> list[list[Fraction]]:
    """Rows M[h][g] = [u^{2(h-g)}] S^{2g-2+c}, g <= h <= g_max: GW_h = sum_g uGW_g M[h][g]."""
    s = sinc_half(2 * g_max + 2)
    factors = [pow_int(s, 2 * g - 2 + c) for g in range(g_max + 1)]
    return [[factors[g].coefficient(2 * (h - g)) for g in range(h + 1)] for h in range(g_max + 1)]


def _inverse_matrix(c: int, g_max: int) -> list[list[Fraction]]:
    """Rows N[h][g], g <= h <= g_max, of the inverse transform: uGW_h = sum_g GW_g N[h][g].

    With x = u^2 and w = x S^2, the transform reads sum_h GW_h x^(h-1) S^-c
    = sum_g uGW_g w^(g-1), so uGW_h is the coefficient of w^(h-1), which
    Lagrange inversion reads off in x.  With k = 2h - 2 + c and m = h - g,

        N[h][g] = (1 - 2m/k) [u^{2m}] S^{-k},    or 2m [u^{2m}] log S when k = 0,

    and N[h][h] = 1.  The powers of S are those the forward matrix uses,
    negated and taken per row, from the same S.
    """
    s = sinc_half(2 * g_max + 2)
    rows = []
    for h in range(g_max + 1):
        k = 2 * h - 2 + c
        f = pow_int(s, -k) if k else log(s)
        rows.append([f.coefficient(2 * m) * (Fraction(k - 2 * m, k) if k else 2 * m)
                     for m in range(h, 0, -1)] + [Fraction(1)])
    return rows


def _apply(matrix: list[list[Fraction]], t: GenusTable, kind: Kind) -> GenusTable:
    """The table of ``kind`` with values[h] = sum_g t.value(g) matrix[h][g], dense on 0..g_max."""
    values = {h: sum((t.value(g) * m for g, m in enumerate(row)), Fraction(0))
              for h, row in enumerate(matrix)}
    return GenusTable(kind, t.c, t.primitive, values, t.g_max)


def gw_from_ugw(t: GenusTable) -> GenusTable:
    """Forward transform: GW_h = sum_{g <= h} uGW_g [u^{2(h-g)}] S^{2g-2+c}.

    Absent genera are read as zero.  The result is dense on 0..g_max.
    """
    if t.kind is not Kind.UGW:
        raise ValueError(f"gw_from_ugw expects a ugw table, got {t.kind.value}")
    return _apply(_transform_matrix(t.c, t.g_max), t, Kind.GW)


def ugw_from_gw(t: GenusTable) -> GenusTable:
    """Inverse transform: the unique uGW table mapping to t under gw_from_ugw.

    The transform is triangular with unit diagonal, so its inverse is too:
    `_inverse_matrix` builds it outright, and the table goes through the
    same apply as the forward transform, with no solve.  Each uGW_h reads
    GW_0..GW_h, so a table without every genus 0..g_max raises MissingGenus,
    naming the absent genera, before any matrix is built; `gv_from_gw` and
    every CLI path that inverts a gw table share this one rule.
    """
    if t.kind is not Kind.GW:
        raise ValueError(f"ugw_from_gw expects a gw table, got {t.kind.value}")
    missing = [g for g in range(t.g_max + 1) if g not in t.values]
    if missing:
        raise MissingGenus(f"inverse transform needs every genus 0..{t.g_max}; missing {missing}")
    return _apply(_inverse_matrix(t.c, t.g_max), t, Kind.UGW)
