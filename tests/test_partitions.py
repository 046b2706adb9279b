import math
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from kroncave.errors import InvariantViolation, NotIntegral, PadTooSmall
from kroncave.partitions import (
    canonical_key,
    conjugate,
    hook_lengths,
    interleave_split,
    midpoint,
    murnaghan_inequalities,
    pad,
    padded_syt_count,
    part,
    partitions_of,
    partitions_up_to,
    syt_count,
    union_parts,
)

from oracles import syt_count_bruteforce


@st.composite
def partitions(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    remaining = n
    parts = []
    while remaining:
        cap = min(remaining, parts[-1] if parts else remaining)
        p = draw(st.integers(min_value=1, max_value=cap))
        parts.append(p)
        remaining -= p
    return tuple(parts)


class TestAsPartition:
    """conjugate is the partition check: positive, weakly decreasing parts."""

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            conjugate((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conjugate((2, -1))

    @given(partitions())
    def test_idempotent(self, p):
        assert conjugate(conjugate(p)) == p


class TestPad:
    def test_example(self):
        assert pad((2, 1), 6) == (3, 2, 1)

    def test_empty(self):
        assert pad((), 5) == (5,)
        assert pad((), 0) == ()

    def test_too_small(self):
        with pytest.raises(PadTooSmall):
            pad((2, 1), 4)

    @given(partitions(), st.integers(min_value=0, max_value=12))
    def test_size_and_shape(self, p, extra):
        d = sum(p) + (p[0] if p else 0) + extra
        out = pad(p, d)
        assert sum(out) == d
        conjugate(out)  # raises ValueError unless out is a partition


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 3, 1, 1)) == (4, 2, 2)
        assert conjugate(()) == ()
        assert conjugate((4, 4)) == (2, 2, 2, 2)

    def test_involution_exhaustive(self):
        for n in range(13):
            for p in partitions_of(n):
                assert conjugate(conjugate(p)) == p


class TestMidpoint:
    def test_paper_pair(self):
        assert midpoint((6, 4), (2, 2, 2, 2, 2)) == (4, 3, 1, 1, 1)

    def test_identity(self):
        assert midpoint((3, 2), (3, 2)) == (3, 2)

    def test_rounding(self):
        assert midpoint((2, 1), (2, 2), "ceil") == (2, 2)
        assert midpoint((2, 1), (2, 2), "floor") == (2, 1)

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            midpoint((2,), (1, 1))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            midpoint((1,), (1,), "round")

    @given(partitions(), partitions())
    def test_ceil_floor_sum(self, lam, mu):
        up, down = midpoint(lam, mu, "ceil"), midpoint(lam, mu, "floor")
        n = max(len(lam), len(mu))
        for i in range(1, n + 1):
            assert part(up, i) + part(down, i) == part(lam, i) + part(mu, i)

    def test_pad_compatibility(self):
        for lam in partitions_up_to(6):
            for mu in partitions_up_to(6):
                try:
                    mid = midpoint(lam, mu)
                except NotIntegral:
                    continue
                d = max(sum(lam) + part(lam, 1), sum(mu) + part(mu, 1))
                for extra in range(3):
                    assert pad(mid, d + extra) == midpoint(pad(lam, d + extra), pad(mu, d + extra))


def sorted_split(lam, mu):
    """The sort scan's larger side of a pair: the merged parts dealt into two."""
    return tuple(interleave_split(union_parts(lam, mu), 2))


class TestSortSplit:
    def test_examples(self):
        assert sorted_split((3, 1), (2, 2)) == ((3, 2), (2, 1))
        assert sorted_split((), (2, 1)) == ((2,), (1,))

    def test_sizes(self):
        for lam in partitions_up_to(6):
            for mu in partitions_up_to(6):
                s1, s2 = sorted_split(lam, mu)
                assert sum(s1) + sum(s2) == sum(lam) + sum(mu)
                # first output dominates componentwise
                for i in range(1, len(s1) + 1):
                    assert part(s1, i) >= part(s2, i)

    def test_conjugation_identity(self):
        for lam in partitions_up_to(8):
            for mu in partitions_up_to(8):
                s1, s2 = sorted_split(conjugate(lam), conjugate(mu))
                assert conjugate(midpoint(lam, mu, "ceil")) == s1
                assert conjugate(midpoint(lam, mu, "floor")) == s2


class TestInterleaveSplit:
    def test_examples(self):
        assert interleave_split((5, 4, 3, 2, 1), 2) == [(5, 3, 1), (4, 2)]
        assert interleave_split((3, 2, 2, 1), 3) == [(3, 1), (2,), (2,)]
        assert interleave_split((4, 2, 1), 1) == [(4, 2, 1)]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            interleave_split((1,), 0)

    @given(partitions(), st.integers(min_value=1, max_value=5))
    def test_parts_preserved(self, p, n):
        pieces = interleave_split(p, n)
        assert len(pieces) == n
        assert reduce(union_parts, pieces) == p

    def test_two_way_matches_sort_split(self):
        """Two ways deal positions 1, 3, 5, ... and 2, 4, 6, ... apart."""
        for p in partitions_up_to(8):
            assert tuple(interleave_split(p, 2)) == (p[0::2], p[1::2])

    def test_two_way_split_of_a_merged_pair_is_sort_split(self):
        """The sorted split of a pair deals the merged sequence alternately, and
        merging the pair again gives that sequence back."""
        for lam in partitions_up_to(8):
            for mu in partitions_up_to(8 - sum(lam)):
                merged = union_parts(lam, mu)
                s1, s2 = sorted_split(lam, mu)
                assert (s1, s2) == (merged[0::2], merged[1::2])
                assert union_parts(s1, s2) == merged


class TestSytCount:
    def test_single_row(self):
        for n in range(9):
            assert syt_count((n,) if n else ()) == 1

    def test_bruteforce_agreement(self):
        for n in range(9):
            for p in partitions_of(n):
                assert syt_count(p) == syt_count_bruteforce(p)

    def test_conjugate_invariance(self):
        for n in range(11):
            for p in partitions_of(n):
                assert syt_count(p) == syt_count(conjugate(p))

    def test_sum_of_squares(self):
        for n in range(11):
            assert sum(syt_count(p) ** 2 for p in partitions_of(n)) == math.factorial(n)

    def test_hook_lengths_multiset(self):
        assert sorted(hook_lengths((2, 2))) == [1, 2, 2, 3]


class TestPaddedSytCount:
    def test_matches_hook_formula_on_the_padded_shape(self):
        """The closed form equals syt_count(pad(p, n)), and raises PadTooSmall,
        with pad's message, on exactly the (p, n) that pad rejects."""
        checked = raised = 0
        for p in partitions_up_to(12):
            for n in range(41):
                try:
                    expected = syt_count(pad(p, n))
                except PadTooSmall as exc:
                    with pytest.raises(PadTooSmall) as info:
                        padded_syt_count(p, n)
                    assert str(info.value) == str(exc), (p, n)
                    raised += 1
                else:
                    assert padded_syt_count(p, n) == expected, (p, n)
                checked += 1
        assert 0 < raised < checked == 272 * 41

    def test_a_hook_product_that_does_not_divide_raises(self, monkeypatch):
        monkeypatch.setattr("kroncave.partitions.hook_lengths", lambda p: [7])
        padded_syt_count.cache_clear()
        with pytest.raises(InvariantViolation, match=r"^hook product does not divide 5!$"):
            padded_syt_count((2, 1), 5)


class TestMurnaghanInequalities:
    def test_examples(self):
        assert murnaghan_inequalities((2,), (1, 1), (2,))
        assert not murnaghan_inequalities((1,), (1,), (3,))
        assert murnaghan_inequalities((6, 4, 2), (4, 2, 2), (8, 6, 4, 2))


class TestEnumeration:
    def test_partitions_of_order(self):
        assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
        assert partitions_of(0) == ((),)

    def test_partitions_up_to_canonical(self):
        seq = list(partitions_up_to(4))
        assert seq == sorted(seq, key=canonical_key)
        assert len(seq) == 1 + 1 + 2 + 3 + 5

    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for n, count in enumerate(expected):
            assert len(partitions_of(n)) == count
