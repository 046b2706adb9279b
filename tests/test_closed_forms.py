import hashlib

import pytest

from kroncave.closed_forms import reach_count, reduced_hook, reduced_two_row
from kroncave.coefficients import reduced_kronecker
from kroncave.partitions import partitions_of, partitions_up_to

from oracles import gamma_count_bruteforce


def one_row(j):
    return (j,) if j else ()


def one_column(j):
    return (1,) * j


class TestReachCount:
    def test_unreachable_rectangle(self):
        assert reach_count(5, 1, 1, 1, 3, 9) == 0

    def test_four_point_example(self):
        assert reach_count(2, 2, 1, 2, 4, 2) == 4

    def test_source_itself_counts(self):
        assert reach_count(3, 0, 5, 0, 3, 5) == 1

    def test_bruteforce_small_grid(self):
        for x in range(6):
            for y in range(6):
                for a in range(6):
                    for b in range(4):
                        for c in range(5):
                            for d in range(4):
                                assert reach_count(a, b, c, d, x, y) == (
                                    gamma_count_bruteforce(a, b, c, d, x, y)
                                )

    def test_northwest_containment_monotonicity(self):
        # a source further north-west reaches a subset of the points
        for t in range(2, 9):
            for j in range(1, t // 2 + 1):
                k = t - j
                for i in range(j):
                    l = t - i
                    for a in range(5):
                        for b in range(3):
                            for c in range(5):
                                for d in range(3):
                                    near = reach_count(a, b, c, d, j, k + 1)
                                    far = reach_count(a, b, c, d, i, l + 1)
                                    assert near >= far


class TestReducedTwoRow:
    def test_empty_target_is_delta(self):
        for j in range(5):
            for k in range(5):
                assert reduced_two_row(j, k, ()) == (1 if j == k else 0)

    def test_standard_entry(self):
        assert reduced_two_row(1, 1, (1,)) == 1

    def test_four_parts_vanish(self):
        assert reduced_two_row(3, 3, (1, 1, 1, 1)) == 0

    def test_oversized_target_vanishes(self):
        assert reduced_two_row(2, 3, (4, 3, 2)) == 0 == reduced_kronecker((2,), (3,), (4, 3, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reduced_two_row(-1, 2, ())

    def test_engine_agreement_small(self):
        for j in range(5):
            for k in range(5):
                for size in range(j + k + 1):
                    for nu in partitions_of(size):
                        assert reduced_two_row(j, k, nu) == reduced_kronecker(
                            one_row(j), one_row(k), nu
                        ), (j, k, nu)


class TestReducedHook:
    def test_hook_case(self):
        assert reduced_hook(1, 1, (1, 1)) == 1

    def test_empty_target_is_delta(self):
        for j in range(1, 5):
            for k in range(1, 5):
                assert reduced_hook(j, k, ()) == (1 if j == k else 0)

    def test_vanishing_probe(self):
        assert reduced_hook(8, 8, (3, 3)) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reduced_hook(0, 1, ())

    def test_values_bounded_by_two(self):
        for j in range(1, 7):
            for k in range(1, 7):
                for size in range(j + k + 1):
                    for nu in partitions_of(size):
                        assert reduced_hook(j, k, nu) in (0, 1, 2)

    def test_engine_agreement_small(self):
        for j in range(1, 5):
            for k in range(1, 5):
                for size in range(j + k + 1):
                    for nu in partitions_of(size):
                        assert reduced_hook(j, k, nu) == reduced_kronecker(
                            one_column(j), one_column(k), nu
                        ), (j, k, nu)


class TestClosedFormPin:
    """Both closed forms over far more inputs than the engine comparisons reach.

    The digest covers reduced_hook for 1 <= j, k <= 12, then reduced_two_row
    for 0 <= j, k <= 12, each at every nu with |nu| <= 14 in the order of
    partitions_up_to: 159,004 values. A rewrite of either function must keep
    every one of them.
    """

    DIGEST = "4e631f187c7f7411d1d6e9dec7074ee578adc2f9a59f6e54647bd4fbba31372a"

    def test_values_pinned(self):
        targets = list(partitions_up_to(14))
        values = [reduced_hook(j, k, nu) for j in range(1, 13) for k in range(1, 13) for nu in targets]
        values += [reduced_two_row(j, k, nu) for j in range(13) for k in range(13) for nu in targets]
        assert len(values) == 159_004
        assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == self.DIGEST


class TestIntervalInequalities:
    """Moving the pair outward along constant total size never increases values."""

    @staticmethod
    def quadruples(max_total):
        for t in range(2, max_total + 1):
            for j in range(1, t // 2 + 1):
                k = t - j
                for i in range(j):
                    yield i, j, k, t - i

    def test_two_row_interval(self):
        for i, j, k, l in self.quadruples(8):
            for size in range(j + k + 1):
                for nu in partitions_of(size):
                    assert reduced_two_row(j, k, nu) >= reduced_two_row(i, l, nu)

    def test_hook_interval(self):
        for i, j, k, l in self.quadruples(8):
            if i < 1:
                continue
            for size in range(j + k + 1):
                for nu in partitions_of(size):
                    assert reduced_hook(j, k, nu) >= reduced_hook(i, l, nu)
