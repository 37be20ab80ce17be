r"""Partition enumeration for the wall-crossing sums.

Two shapes of data index those sums.  A ThreefoldPartition splits a genus
g as g0 + sum(g1) + sum(g2), where g1 lists the genera attached to at most
n marked points and g2 lists the genera of the extra bracket insertions.
A StablePartition splits off end components, each carrying a genus, at
most one marked point, and a nonempty contact profile eta; every part must
sit exactly on the wall of weight d0.

Partitions are canonical weakly-decreasing tuples.  Orbit counts are
restored by explicit multiplicity weights (`multinomial` for the marked
list, 1 / prod(m_j!) for the unmarked one), so enumerations stay
duplicate-free and set equality is decidable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator


class PartsMismatch(ValueError):
    """Raised when multinomial parts do not sum to the stated total."""


def multinomial(total: int, parts: list[int] | tuple[int, ...]) -> int:
    """total! / prod(parts!) for nonnegative parts summing to total."""
    if any(p < 0 for p in parts) or total < 0:
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != total:
        raise PartsMismatch(f"parts {list(parts)} sum to {sum(parts)}, not {total}")
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def multiplicities(values) -> tuple[int, ...]:
    """Repetition counts of the distinct entries, e.g. (2,1,1) -> (2, 1)."""
    return tuple(Counter(values).values())


def descending_partitions(total: int, max_part: int | None = None,
                          max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly-decreasing tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    if max_len is not None and max_len <= 0:
        return
    top = total if max_part is None else min(max_part, total)
    for first in range(top, 0, -1):
        rest_len = None if max_len is None else max_len - 1
        for rest in descending_partitions(total - first, first, rest_len):
            yield (first,) + rest


@dataclass(frozen=True)
class ThreefoldPartition:
    """One correction term index: root genus g0 plus genus lists g1, g2."""

    g0: int
    g1: tuple[int, ...]
    g2: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "g1", tuple(self.g1))
        object.__setattr__(self, "g2", tuple(self.g2))
        if self.g0 < 0:
            raise ValueError("root genus must be nonnegative")
        for name, part in (("g1", self.g1), ("g2", self.g2)):
            if any(x <= 0 for x in part):
                raise ValueError(f"{name} entries must be positive")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"{name} must be weakly decreasing")

    @property
    def genus(self) -> int:
        return self.g0 + sum(self.g1) + sum(self.g2)

    @property
    def k1(self) -> int:
        return len(self.g1)

    @property
    def k2(self) -> int:
        return len(self.g2)


def threefold_splittings(g0: int, delta: int, n: int) -> Iterator[ThreefoldPartition]:
    """ThreefoldPartition with root genus g0 and added genus delta, in sorted order.

    Yields every splitting of delta into a marked list g1 with k1 <= n and
    an insertion list g2, ordered by (g1, g2).  delta = 0 is the trivial
    splitting and yields nothing.
    """
    if g0 < 0 or delta < 0 or n < 0:
        raise ValueError("g0, delta and n must be nonnegative")
    if delta == 0:
        return
    splits = sorted((g1, g2)
                    for s1 in range(delta + 1)
                    for g1 in descending_partitions(s1, max_len=n)
                    for g2 in descending_partitions(delta - s1))
    for g1, g2 in splits:
        yield ThreefoldPartition(g0, g1, g2)


def enumerate_threefold_partitions(g: int, n: int) -> list[ThreefoldPartition]:
    """All ThreefoldPartition with total genus g and k1 <= n, in sorted order.

    The trivial splitting (g0 = g with both lists empty) indexes the
    uncorrected term and is excluded.
    """
    if g < 0 or n < 0:
        raise ValueError("g and n must be nonnegative")
    return [p for g0 in range(g + 1) for p in threefold_splittings(g0, g - g0, n)]


@dataclass(frozen=True)
class StablePartition:
    """Root genus g0 plus end-component parts (g_i, n_i, eta_i)."""

    g0: int
    parts: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        parts = tuple((gi, ni, tuple(eta)) for gi, ni, eta in self.parts)
        object.__setattr__(self, "parts", parts)
        if self.g0 < 0:
            raise ValueError("root genus must be nonnegative")
        for gi, ni, eta in parts:
            if gi < 0:
                raise ValueError("part genus must be nonnegative")
            if ni not in (0, 1):
                raise ValueError("each part carries at most one marked point")
            if not eta or any(e <= 0 for e in eta):
                raise ValueError("eta must be a nonempty tuple of positive integers")
            if any(eta[i] < eta[i + 1] for i in range(len(eta) - 1)):
                raise ValueError("eta must be weakly decreasing")

    def satisfies(self, g: int, n: int, d0) -> bool:
        """Check both defining equations exactly for generating data (g, n, d0)."""
        d0 = Fraction(d0)
        if not self.parts:
            return False
        for gi, ni, eta in self.parts:
            if 2 * gi - 2 + sum(eta) + len(eta) + Fraction(ni, 2) != d0:
                return False
        if sum(ni for _, ni, _ in self.parts) > n:
            return False
        k = len(self.parts)
        return sum(gi + len(eta) for gi, _, eta in self.parts) + self.g0 - k == g


def enumerate_stable_partitions(g: int, n: int, d0, eta_cap: int) -> list[StablePartition]:
    """All StablePartition on the wall of weight d0, canonically sorted.

    Part shapes (g_i, n_i, eta) must solve
    2 g_i - 2 + |eta| + len(eta) + n_i / 2 = d0 exactly, with g_i >= 0,
    n_i in {0, 1}, eta nonempty and |eta| <= eta_cap.  Multisets of parts
    are constrained by sum(g_i + len(eta_i) - 1) = g - g0 with g0 >= 0 and
    by the marking budget sum(n_i) <= n, with at least one part.

    Raises ValueError if d0 <= 0, or if some admissible markingless shape
    has g_i + len(eta) - 1 == 0, since it could then repeat without bound.
    """
    d0 = Fraction(d0)
    if d0 <= 0:
        raise ValueError("wall weight d0 must be positive")
    if n < 0 or eta_cap < 0:
        raise ValueError("n and eta_cap must be nonnegative")

    shapes = []
    for eta_sum in range(1, eta_cap + 1):
        for eta in descending_partitions(eta_sum):
            for ni in (0, 1):
                if ni > n:
                    continue
                gi2 = d0 + 2 - eta_sum - len(eta) - Fraction(ni, 2)  # equals 2 * g_i
                if gi2 < 0 or gi2.denominator != 1 or gi2.numerator % 2:
                    continue
                gi = gi2.numerator // 2
                weight = gi + len(eta) - 1
                if weight == 0 and ni == 0:
                    raise ValueError(
                        f"part shape (g={gi}, eta={eta}) has zero weight and no marking; "
                        "the multiset family is infinite"
                    )
                shapes.append((gi, ni, eta, weight))
    shapes.sort(key=lambda s: (s[0], s[1], s[2]))

    found: list[StablePartition] = []

    # count vector over shapes; g0 equals the genus budget left at the leaf,
    # since each copy of a shape consumes weight = g_i + len(eta) - 1
    def extend(idx: int, genus_left: int, marks_left: int, chosen: list) -> None:
        if idx == len(shapes):
            if chosen:
                parts = tuple(sorted(chosen, reverse=True))
                found.append(StablePartition(genus_left, parts))
            return
        gi, ni, eta, weight = shapes[idx]
        extend(idx + 1, genus_left, marks_left, chosen)
        copies = 1
        while weight * copies <= genus_left and ni * copies <= marks_left:
            extend(idx + 1, genus_left - weight * copies, marks_left - ni * copies,
                   chosen + [(gi, ni, eta)] * copies)
            copies += 1

    if g >= 0:
        extend(0, g, n, [])
    found.sort(key=lambda sp: (sp.g0, sp.parts))
    return found
