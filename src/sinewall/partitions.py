r"""Partition enumeration for the wall-crossing sums.

One walk (`descending_walk`) lists every weakly-decreasing tuple of
positive integers up to a sum, each once; it serves only
`enumerate_threefold_partitions`, which names the raw wall-crossing sum's
index set as explicit tuples, for the tests and the benchmark's tracer:
each term is a ThreefoldPartition that splits a genus g as
g0 + sum(g1) + sum(g2), g1 the genera at (at most n) marked points and g2
those of the extra bracket insertions, filtered from the walk to the
tuples that complete the sum.  The raw sum itself lists none of them:
`wallcross` reads its sums over the lists off powers of the vertex series.

Orbit counts are restored by multiplicity weights (`multinomial` for the
marked list, 1 / prod(m_j!) for the unmarked one), so enumerations stay
duplicate-free and set equality is decidable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from math import factorial

from ._record import Record

__all__ = [
    "PartsMismatch", "ThreefoldPartition", "enumerate_threefold_partitions", "multinomial",
    "multiplicities",
]


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


def descending_walk(top: int) -> Iterator[tuple[int, ...]]:
    """Every weakly-decreasing positive tuple with sum <= top, each once, larger parts first.

    Below top = 0 not even the empty tuple qualifies.
    """
    # (tuple, top minus its sum, its largest next part)
    stack = [((), top, top)] if top >= 0 else []
    while stack:
        parts, rest, largest = stack.pop()
        yield parts
        stack.extend((parts + (p,), rest - p, min(p, rest - p)) for p in range(1, largest + 1))


class ThreefoldPartition(Record, fields="g0 g1 g2"):
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


def enumerate_threefold_partitions(g: int, n: int) -> list[ThreefoldPartition]:
    """All ThreefoldPartition with total genus g and at most n parts in g1, in (g0, g1, g2) order.

    The trivial splitting (g0 = g with both lists empty) indexes the
    uncorrected term and is excluded.
    """
    if g < 0 or n < 0:
        raise ValueError("g and n must be nonnegative")
    return sorted((ThreefoldPartition(g0, g1, g2)
                   for g0 in range(g + 1)
                   for g1 in descending_walk(g - g0) if len(g1) <= n
                   for g2 in descending_walk(g - g0 - sum(g1))
                   if sum(g1) + sum(g2) == g - g0 and (g1 or g2)))
