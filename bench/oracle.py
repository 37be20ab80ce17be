"""Independent exact oracle for the sine-power transform.

Shares no code with ``sinewall``.  It works in x = u**2, where
S = sin(u/2)/(u/2) = sum_n (-1)^n x^n / (4^n (2n+1)!), and builds each power
S^a with J.C.P. Miller's recurrence for powers of a series with constant
term one (Knuth, TAOCP vol. 2, section 4.7):

    h_0 = 1,   h_m = (1/m) sum_{j=1..m} ((a + 1) j - m) s_j h_{m-j}.

The generator uses it to build GW tables from integer GV tables, and the
checks use it to validate every transform, ``expand-sine`` and ``mu``
output exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class SinePowers:
    """Cached coefficient columns [x^m] S^a, extended on demand."""

    def __init__(self) -> None:
        self._s: list[Fraction] = []
        self._cols: dict[int, list[Fraction]] = {}
        self._log: list[Fraction] = []

    def _sinc(self, n: int) -> list[Fraction]:
        while len(self._s) < n:
            k = len(self._s)
            self._s.append(Fraction((-1) ** k, 4**k * factorial(2 * k + 1)))
        return self._s

    def column(self, a: int, length: int) -> list[Fraction]:
        """The first ``length`` coefficients of S^a in x = u**2."""
        s = self._sinc(length)
        h = self._cols.setdefault(a, [Fraction(1)])
        for m in range(len(h), length):
            acc = Fraction(0)
            for j in range(1, m + 1):
                acc += ((a + 1) * j - m) * s[j] * h[m - j]
            h.append(acc / m)
        return h[:length]

    def log_sinc(self, length: int) -> list[Fraction]:
        """The first ``length`` coefficients of log S, from S L' = S'."""
        s = self._sinc(length)
        L = self._log or [Fraction(0)]
        for m in range(len(L), length):
            acc = m * s[m]
            for k in range(1, m):
                acc -= k * L[k] * s[m - k]
            L.append(acc / m)
        self._log = L
        return L[:length]

    def forward(self, values: dict[int, Fraction], c: int, g_max: int) -> dict[int, Fraction]:
        """GW_h = sum_{g <= h} v_g [x^(h-g)] S^(2g - 2 + c), dense on 0..g_max."""
        out = {h: Fraction(0) for h in range(g_max + 1)}
        for g, v in values.items():
            if not v:
                continue
            col = self.column(2 * g - 2 + c, g_max - g + 1)
            for h in range(g, g_max + 1):
                out[h] += v * col[h - g]
        return out

    def mu(self, g: int) -> tuple[Fraction, Fraction]:
        """(a_g, b_g) = ([x^g] S^2, [x^g] S^2 log S)."""
        s2 = self.column(2, g + 1)
        L = self.log_sinc(g + 1)
        return s2[g], sum((s2[g - k] * L[k] for k in range(g + 1)), Fraction(0))
