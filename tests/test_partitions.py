"""Partition combinatorics: counting identities and brute-force equivalence."""

import pytest

from sinewall.partitions import ThreefoldPartition, descending_walk, enumerate_threefold_partitions


def partition_oracle(total):
    """All weakly decreasing positive tuples summing to total, by direct recursion."""
    out = set()

    def rec(rem, mx, acc):
        if rem == 0:
            out.add(tuple(acc))
            return
        for p in range(min(rem, mx), 0, -1):
            acc.append(p)
            rec(rem - p, p, acc)
            acc.pop()

    rec(total, total, [])
    return out if total else {()}


# ---------------------------------------------------------------- descending


def recursive_descending_partitions(total, max_part=None):
    """The partitions of total, larger parts first, by a recursion over the first part."""
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(max_part, total)
    for first in range(top, 0, -1):
        for rest in recursive_descending_partitions(total - first, first):
            yield (first,) + rest


def walk_at_one_sum(total):
    """The tuples of descending_walk(total) that sum to total, in walk order."""
    return [parts for parts in descending_walk(total) if sum(parts) == total]


def test_descending_partitions_counts():
    # partition numbers p(0..15)
    p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    for total, count in enumerate(p):
        got = walk_at_one_sum(total)
        assert len(got) == len(set(got)) == count
        assert set(got) == partition_oracle(total)


def test_descending_partitions_equal_the_recursion_in_order():
    for total in range(16):
        assert walk_at_one_sum(total) == list(recursive_descending_partitions(total))


def test_descending_walk_lists_each_tuple_once_and_every_tuple():
    # p(0..14); the walk up to top lists every partition of every s <= top, each once
    p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
    for top in range(15):
        walked = list(descending_walk(top))
        assert len(walked) == len(set(walked)) == sum(p[:top + 1])
        assert set(walked) == {parts for s in range(top + 1) for parts in partition_oracle(s)}
    for top in range(-3, 0):  # no tuple, not even (), has a negative sum
        assert list(descending_walk(top)) == []


# ---------------------------------------------------------------- threefold


def test_threefold_partition_validation():
    p = ThreefoldPartition(1, (2, 1), (1,))
    assert (p.g0, p.g1, p.g2) == (1, (2, 1), (1,))
    assert ThreefoldPartition(0, [3, 3], []) == (0, (3, 3), ())  # lists become tuples
    with pytest.raises(ValueError):
        ThreefoldPartition(-1, (), ())
    with pytest.raises(ValueError):
        ThreefoldPartition(0, (1, 2), ())  # not weakly decreasing
    with pytest.raises(ValueError):
        ThreefoldPartition(0, (0,), ())  # parts must be positive


def test_threefold_trivial_cases():
    assert enumerate_threefold_partitions(0, 0) == []
    assert enumerate_threefold_partitions(0, 4) == []
    assert enumerate_threefold_partitions(1, 0) == [ThreefoldPartition(0, (), (1,))]
    for args in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            enumerate_threefold_partitions(*args)


def test_threefold_g2_n1_list():
    got = enumerate_threefold_partitions(2, 1)
    want = [
        ThreefoldPartition(0, (), (1, 1)),
        ThreefoldPartition(0, (), (2,)),
        ThreefoldPartition(0, (1,), (1,)),
        ThreefoldPartition(0, (2,), ()),
        ThreefoldPartition(1, (), (1,)),
        ThreefoldPartition(1, (1,), ()),
    ]
    assert got == want


def test_threefold_brute_force_equivalence():
    # independent oracle: every split g0 + |g1| + |g2| = g with len(g1) <= n,
    # minus the trivial (g, (), ()) term
    for g in range(7):
        for n in range(5):
            oracle = set()
            for g0 in range(g + 1):
                for s1 in range(g - g0 + 1):
                    for p1 in partition_oracle(s1):
                        if len(p1) > n:
                            continue
                        for p2 in partition_oracle(g - g0 - s1):
                            if g0 == g and not p1 and not p2:
                                continue
                            oracle.add((g0, p1, p2))
            got = enumerate_threefold_partitions(g, n)
            assert len(got) == len(set(got))
            assert {(p.g0, p.g1, p.g2) for p in got} == oracle


def test_threefold_listing_is_sorted_and_deterministic():
    a = enumerate_threefold_partitions(4, 2)
    b = enumerate_threefold_partitions(4, 2)
    assert a == b
    assert a == sorted(a, key=lambda p: (p.g0, p.g1, p.g2))

