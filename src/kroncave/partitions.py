"""Integer partitions and the shape operations applied to them.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the empty partition. Tuples keep equality, hashing, and memo keys
cheap, which matters once character recursions start hammering these values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InvariantViolation, NotIntegral, PadTooSmall

Partition = tuple[int, ...]

EMPTY: Partition = ()


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize an iterable into a partition tuple.

    Trailing zeros are stripped; increasing or negative entries are rejected.
    """
    p = tuple(int(x) for x in parts)
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    p = p[:end]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError(f"parts must be positive, got {x} at index {i}")
        if i and p[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing, got {p[i-1]} < {x}")
    return p


def part(p: Partition, i: int) -> int:
    """i-th part, 1-indexed; 0 past the end."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def canonical_key(p: Partition) -> tuple[int, Partition]:
    """Total order used everywhere results must be deterministic."""
    return (sum(p), p)


def pad(p: Partition, d: int) -> Partition:
    """Prepend a long first row so the result is a partition of d."""
    head = d - sum(p)
    first = p[0] if p else 0
    if head < first:
        raise PadTooSmall(f"need d >= {sum(p) + first} to pad {p or '()'}, got {d}")
    if head == 0:
        return p  # only possible for the empty partition
    return (head,) + p


@lru_cache(maxsize=None)
def conjugate(p: Partition) -> Partition:
    """The transposed diagram. Raises ValueError unless p has positive,
    weakly decreasing parts; a partition is checked once per clear_caches(),
    so a function that validates through here pays a cache hit after that."""
    if any(x <= 0 for x in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"not a partition: {p}")
    if not p:
        return EMPTY
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


def midpoint(lam: Partition, mu: Partition, mode: str = "exact") -> Partition:
    """Componentwise average, with the shorter partition extended by zeros.

    mode "exact" requires every componentwise sum to be even and raises
    NotIntegral otherwise; "ceil"/"floor" round componentwise.
    """
    n = max(len(lam), len(mu))
    sums = [part(lam, i) + part(mu, i) for i in range(1, n + 1)]
    if mode == "exact":
        for i, s in enumerate(sums):
            if s % 2:
                raise NotIntegral(f"component {i + 1} sums to odd value {s}")
        halves = [s // 2 for s in sums]
    elif mode == "ceil":
        halves = [(s + 1) // 2 for s in sums]
    elif mode == "floor":
        halves = [s // 2 for s in sums]
    else:
        raise ValueError(f"unknown midpoint mode {mode!r}")
    return tuple(h for h in halves if h > 0)


def union_parts(lam: Partition, mu: Partition) -> Partition:
    """All parts of both partitions, rearranged weakly decreasing."""
    return tuple(sorted(lam + mu, reverse=True))


def sort_split(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """Merge the parts, then deal them alternately into two partitions.

    The first output takes positions 1, 3, 5, ... of the merged sequence and
    the second takes positions 2, 4, 6, ...
    """
    u = union_parts(lam, mu)
    return u[0::2], u[1::2]


def interleave_split(lam: Partition, n: int) -> list[Partition]:
    """Split into n partitions taking every n-th part, offset by 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [lam[i::n] for i in range(n)]


def hook_lengths(p: Partition) -> list[int]:
    conj = conjugate(p)
    return [
        (p[i] - j) + (conj[j - 1] - i - 1) + 1
        for i in range(len(p))
        for j in range(1, p[i] + 1)
    ]


def syt_count(p: Partition) -> int:
    """Number of standard Young tableaux of this shape, by hook lengths.

    The division is checked exact; a remainder would mean a bug.
    """
    value, rest = divmod(math.factorial(sum(p)), math.prod(hook_lengths(p)))
    if rest:
        raise InvariantViolation(f"hook product does not divide {sum(p)}!")
    return value


def murnaghan_inequalities(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """All three triangle inequalities on the sizes."""
    a, b, c = sum(lam), sum(mu), sum(nu)
    return a <= b + c and b <= a + c and c <= a + b


def _overlap(lam: Partition, mu: Partition) -> int:
    """Number of cells the two diagrams share: the size of their intersection."""
    return sum(map(min, lam, mu))


def dvir_inequalities(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Dvir's maximal-length bounds, which every nonzero g(lam, mu, nu) meets.

    Dvir (J. Algebra 154, 1993): g(lam, mu, nu) != 0 implies that len(nu) is
    at most the number of cells lam shares with mu'. The symmetry of g in its
    three arguments and g(lam, mu, nu) = g(lam', mu, nu') give five more: the
    lengths of lam and mu against the other two pairs, and each first row
    against the cells the other two share without conjugation. Sizes are not
    compared here.
    """
    lam_c, mu_c, nu_c = conjugate(lam), conjugate(mu), conjugate(nu)
    return (
        len(nu) <= _overlap(lam, mu_c)
        and len(lam) <= _overlap(mu, nu_c)
        and len(mu) <= _overlap(lam, nu_c)
        and len(nu_c) <= _overlap(lam, mu)
        and len(lam_c) <= _overlap(mu, nu)
        and len(mu_c) <= _overlap(lam, nu)
    )


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n, largest-first (lexicographically decreasing)."""
    if n == 0:
        return (EMPTY,)
    cap = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_up_to(total: int) -> Iterator[Partition]:
    """All partitions of size 0..total in canonical (size, lex) order."""
    for n in range(total + 1):
        yield from sorted(partitions_of(n))
