r"""Partition enumeration for the wall-crossing sums.

The raw wall-crossing sum runs over two independent lists of genera,
each a `descending_partitions` tuple: g1 lists the genera attached to at
most n marked points and g2 the genera of the extra bracket insertions.
A ThreefoldPartition names one term of that sum together with its root
genus, splitting a genus g as g0 + sum(g1) + sum(g2);
`enumerate_threefold_partitions` lists the whole index set.

Partitions are canonical weakly-decreasing tuples.  Orbit counts are
restored by explicit multiplicity weights (`multinomial` for the marked
list, 1 / prod(m_j!) for the unmarked one), so enumerations stay
duplicate-free and set equality is decidable.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from math import factorial


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


class ThreefoldPartition(namedtuple("ThreefoldPartition", "g0 g1 g2")):
    """One correction term index: root genus g0 plus genus lists g1, g2."""

    __slots__ = ()

    def __new__(cls, g0: int, g1: tuple[int, ...], g2: tuple[int, ...]):
        g1, g2 = tuple(g1), tuple(g2)
        if g0 < 0:
            raise ValueError("root genus must be nonnegative")
        for name, part in (("g1", g1), ("g2", g2)):
            if any(x <= 0 for x in part):
                raise ValueError(f"{name} entries must be positive")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"{name} must be weakly decreasing")
        return super().__new__(cls, g0, g1, g2)

    @property
    def genus(self) -> int:
        return self.g0 + sum(self.g1) + sum(self.g2)

    @property
    def k1(self) -> int:
        return len(self.g1)

    @property
    def k2(self) -> int:
        return len(self.g2)


def enumerate_threefold_partitions(g: int, n: int) -> list[ThreefoldPartition]:
    """All ThreefoldPartition with total genus g and k1 <= n, in (g0, g1, g2) order.

    The trivial splitting (g0 = g with both lists empty) indexes the
    uncorrected term and is excluded.
    """
    if g < 0 or n < 0:
        raise ValueError("g and n must be nonnegative")
    return sorted((ThreefoldPartition(g0, g1, g2)
                   for g0 in range(g + 1)
                   for s1 in range(g - g0 + 1)
                   for g1 in descending_partitions(s1, max_len=n)
                   for g2 in descending_partitions(g - g0 - s1)
                   if g1 or g2))
