"""Closed forms for reduced Kronecker coefficients of special pairs.

Two families admit lattice-count formulas: two one-row shapes reduce to a
rectangle reachability count, and two one-column shapes to a short case split
over the target shape. Both are cross-validated against the character engine
in the test suite, which is what pins down the boundary conventions here
(sources reachable in zero steps count; parity of the walk is forced by the
step set; the characteristic conditions are plain inequalities on halves).
"""

from __future__ import annotations

from .partitions import Partition, conjugate, part


def _count_with_parity(lo: int, hi: int, parity: int) -> int:
    if lo > hi:
        return 0
    first = lo if lo % 2 == parity else lo + 1
    if first > hi:
        return 0
    return (hi - first) // 2 + 1


def reach_count(a: int, b: int, c: int, d: int, x: int, y: int) -> int:
    """Lattice points of [a, a+b] x [c, c+d] (within N^2) reachable from (x, y).

    A point (u, v) is reachable by unit steps south-west and north-west, zero
    steps allowed: u <= x, |v - y| <= x - u, and v - y has the parity of x - u.
    """
    total = 0
    for u in range(max(a, 0), min(a + b, x) + 1):
        s = x - u
        lo = max(c, y - s, 0)
        hi = min(c + d, y + s)
        total += _count_with_parity(lo, hi, (y + s) % 2)
    return total


def reduced_two_row(j: int, k: int, nu: Partition) -> int:
    """Reduced Kronecker coefficient of two one-row shapes (j) and (k) at nu.

    Vanishes for nu with more than 3 parts. Otherwise a single rectangle
    reach count in the stable regime; the subtracted rectangle that appears
    at finite padding sits arbitrarily high and never contributes.
    """
    if j < 0 or k < 0:
        raise ValueError("row lengths must be nonnegative")
    nu = tuple(nu)
    conjugate(nu)  # ValueError unless nu is a partition
    if len(nu) > 3:
        return 0
    if j > k:
        j, k = k, j  # the count assumes the smaller row first
    v1, v2, v3 = part(nu, 1), part(nu, 2), part(nu, 3)
    return reach_count(v2 + v3, v1 - v2, v1 + v3 + 1, v2 - v3, j, k + 1)


def reduced_hook(j: int, k: int, nu: Partition) -> int:
    """Reduced Kronecker coefficient of two one-column shapes (1^j), (1^k) at nu.

    Always 0, 1, or 2, by a case split on nu. The empty target gives
    [j == k]. A single column of d boxes gives 1 exactly when j, k and d meet
    the triangle inequalities. Otherwise nu1 >= 2, and the value is 0 unless
    every part of the tail nu[1:] is 1 or 2. With d1 ones in the tail and
    half = j + k - 2 * (twos in the tail) - d1, it is

      [2(nu1 - 1) <= half and |k - j| <= d1] + [2 nu1 <= half + 1 and |k - j| <= d1 + 1].
    """
    if j < 1 or k < 1:
        raise ValueError("column heights must be positive")
    nu = tuple(nu)
    conjugate(nu)  # ValueError unless nu is a partition
    if not nu:
        return int(j == k)
    if nu[0] == 1:
        # padded shape is a single hook with leg |nu|
        d = len(nu)
        return int(j <= d + k and d <= j + k and k <= j + d)
    tail = nu[1:]
    if any(x >= 3 for x in tail):
        return 0  # not contained in any double hook once padded
    d1 = tail.count(1)
    half = j + k - 2 * tail.count(2) - d1
    spread = abs(k - j)
    first = int(2 * (nu[0] - 1) <= half and spread <= d1)
    second = int(2 * nu[0] <= half + 1 and spread <= d1 + 1)
    return first + second
