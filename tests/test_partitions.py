"""Partition combinatorics: counting identities and brute-force equivalence."""

from fractions import Fraction as F

import pytest

from sinewall.partitions import (
    PartsMismatch,
    StablePartition,
    ThreefoldPartition,
    descending_partitions,
    enumerate_stable_partitions,
    enumerate_threefold_partitions,
    multinomial,
    multiplicities,
    threefold_splittings,
)


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


# ---------------------------------------------------------------- multinomial


def test_multinomial_examples():
    assert multinomial(3, [1, 1, 1]) == 6
    assert multinomial(3, [3]) == 1
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(0, []) == 1


def test_multinomial_mismatch():
    with pytest.raises(PartsMismatch):
        multinomial(3, [1, 1])
    with pytest.raises(ValueError):
        multinomial(3, [4, -1])


def test_multinomial_matches_factorial_quotient():
    from math import factorial

    for parts in [(1, 2, 3), (2, 2), (5,), (1, 1, 1, 1)]:
        total = sum(parts)
        want = factorial(total)
        for p in parts:
            want //= factorial(p)
        assert multinomial(total, parts) == want


def test_multiplicities():
    assert multiplicities(()) == ()
    assert multiplicities((3, 1, 1)) == (1, 2)
    assert multiplicities((2, 2, 2)) == (3,)
    assert sorted(multiplicities((5, 3, 3, 1))) == [1, 1, 2]


# ---------------------------------------------------------------- descending


def test_descending_partitions_counts():
    # partition numbers p(0..8) = 1 1 2 3 5 7 11 15 22
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for total, count in enumerate(want):
        got = list(descending_partitions(total))
        assert len(got) == count
        assert len(set(got)) == count
        assert set(got) == partition_oracle(total)


def test_descending_partitions_filters():
    assert set(descending_partitions(4, max_part=2)) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert set(descending_partitions(4, max_len=2)) == {(4,), (3, 1), (2, 2)}
    assert list(descending_partitions(3, max_part=1, max_len=2)) == []


# ---------------------------------------------------------------- threefold


def test_threefold_partition_validation():
    p = ThreefoldPartition(1, (2, 1), (1,))
    assert p.genus == 5
    assert p.k1 == 2
    assert p.k2 == 1
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


def test_threefold_splittings_match_filtered_enumeration():
    # the per-root-genus generator is exactly the g0 slice of the full listing
    for g0 in range(4):
        for delta in range(7):
            for n in range(5):
                want = [p for p in enumerate_threefold_partitions(g0 + delta, n)
                        if p.g0 == g0]
                assert list(threefold_splittings(g0, delta, n)) == want


def test_threefold_splittings_validation():
    assert list(threefold_splittings(2, 0, 3)) == []
    for args in ((-1, 1, 0), (0, -1, 0), (0, 1, -1)):
        with pytest.raises(ValueError):
            list(threefold_splittings(*args))


# ---------------------------------------------------------------- stable


def test_stable_partition_validation():
    p = StablePartition(1, (((0, 1, (1,))),))
    assert p.g0 == 1
    with pytest.raises(ValueError):
        StablePartition(-1, ((0, 0, (1,)),))
    with pytest.raises(ValueError):
        StablePartition(0, ((0, 2, (1,)),))  # marking flag must be 0 or 1
    with pytest.raises(ValueError):
        StablePartition(0, ((0, 0, ()),))  # ramification profile is nonempty
    with pytest.raises(ValueError):
        StablePartition(0, ((0, 0, (1, 2)),))  # not weakly decreasing


def test_stable_example_g2_d2():
    got = enumerate_stable_partitions(2, 0, 2, 2)
    a = (1, 0, (1,))
    b = (0, 0, (1, 1))
    want = {
        StablePartition(1, (a,)),
        StablePartition(1, (b,)),
        StablePartition(0, (a, a)),
        StablePartition(0, (a, b)),
        StablePartition(0, (b, b)),
    }
    assert len(got) == 5
    assert set(got) == want
    for p in got:
        assert p.satisfies(2, 0, 2)


def test_stable_parts_canonically_ordered():
    for p in enumerate_stable_partitions(3, 2, 2, 2):
        assert p.parts == tuple(sorted(p.parts, reverse=True))


def test_stable_empty_when_nothing_fits():
    assert enumerate_stable_partitions(0, 0, F(1, 2), 1) == []


def test_stable_marked_zero_weight_parts_are_bounded():
    # the only shape at d0 = 1/2 is (genus 0, one marking, eta = (1));
    # its weight is zero, so multiplicity is capped by the marking budget
    got = enumerate_stable_partitions(0, 2, F(1, 2), 1)
    part = (0, 1, (1,))
    assert set(got) == {
        StablePartition(0, (part,)),
        StablePartition(0, (part, part)),
    }
    for p in got:
        assert p.satisfies(0, 2, F(1, 2))


def test_stable_rejects_nonpositive_weight_threshold():
    with pytest.raises(ValueError):
        enumerate_stable_partitions(2, 0, 0, 2)
    with pytest.raises(ValueError):
        enumerate_stable_partitions(2, 0, -1, 2)


def test_stable_detects_unbounded_family():
    # d0 = 1 with cap >= 2 admits an unmarked weight-zero shape, so no finite
    # listing exists
    with pytest.raises(ValueError):
        enumerate_stable_partitions(1, 0, 1, 2)


def test_stable_every_result_satisfies_constraints():
    # cap 2 keeps every grid point finite: an unmarked weight-zero shape
    # needs eta = (d0 + 1,), out of reach for these thresholds
    for g in range(4):
        for n in range(3):
            for d0 in (F(3, 2), 2, F(5, 2), 3):
                got = enumerate_stable_partitions(g, n, d0, 2)
                assert len(got) == len(set(got))
                for p in got:
                    assert p.satisfies(g, n, d0)


def test_stable_unbounded_family_at_higher_cap():
    # raising the cap to 3 exposes the unmarked eta = (3,) shape at d0 = 2
    with pytest.raises(ValueError):
        enumerate_stable_partitions(2, 0, 2, 3)


def test_stable_cap_is_monotone():
    small = set(enumerate_stable_partitions(2, 0, 3, 1))
    large = set(enumerate_stable_partitions(2, 0, 3, 3))
    assert small <= large


def test_stable_int_and_fraction_thresholds_agree():
    assert enumerate_stable_partitions(2, 0, 2, 2) == enumerate_stable_partitions(
        2, 0, F(2), 2
    )
