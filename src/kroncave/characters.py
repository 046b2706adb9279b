"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama border-strip recursion, evaluated on
the beta-set (first-column hook lengths) of the shape: removing a border strip
of length t is replacing a beta value b by b - t when b - t is free. Cycles
are consumed largest first, which shrinks the shape fastest and maximizes memo
reuse across queries. All arithmetic is exact Python ints; factorials past 20!
overflow machine words, so nothing here may ever round.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .errors import InvariantViolation, SizeMismatch
from .partitions import Partition, partitions_of, syt_count


class CycleType:
    """Conjugacy class of S_n given by its cycle lengths."""

    __slots__ = ("parts", "n", "multiplicities", "centralizer_order", "class_size")

    def __init__(self, parts: Partition):
        self.parts = tuple(parts)
        self.n = sum(self.parts)
        self.multiplicities = dict(Counter(self.parts))
        z = 1
        for length, mult in self.multiplicities.items():
            z *= length**mult * math.factorial(mult)
        self.centralizer_order = z
        self.class_size, rest = divmod(math.factorial(self.n), z)
        if rest:
            raise InvariantViolation(f"centralizer order {z} does not divide {self.n}!")

    def sign(self) -> int:
        return -1 if (self.n - len(self.parts)) % 2 else 1

    def __eq__(self, other):
        return isinstance(other, CycleType) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"CycleType{self.parts!r}"


@lru_cache(maxsize=None)
def cycle_types(n: int) -> tuple[CycleType, ...]:
    """All conjugacy classes of S_n, cycle type lexicographically decreasing."""
    return tuple(CycleType(p) for p in partitions_of(n))


def _strip_removals(lam: Partition, t: int) -> list[tuple[int, Partition]]:
    """(sign, smaller shape) for every removable border strip of length t."""
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]  # strictly decreasing
    beta_set = set(beta)
    out = []
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for v in beta if nb < v < b)
        new_beta = sorted((v for v in beta if v != b), reverse=True)
        # re-insert nb keeping descending order
        pos = len(new_beta)
        for i, v in enumerate(new_beta):
            if v < nb:
                pos = i
                break
        new_beta.insert(pos, nb)
        shape = tuple(
            v - (m - 1 - i) for i, v in enumerate(new_beta) if v - (m - 1 - i) > 0
        )
        out.append((-1 if height % 2 else 1, shape))
    return out


def character_value(
    lam: Partition, cycles: Partition, memo: dict | None = None
) -> int:
    """Character of the irreducible labelled lam on the class with these cycles.

    cycles must be sorted weakly decreasing and sum to |lam|. Pass a dict to
    memoize across calls; None evaluates the bare recursion.
    """
    if not lam:
        return 1
    key = (lam, cycles)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    t = cycles[0]
    rest = cycles[1:]
    total = 0
    for sign, shape in _strip_removals(lam, t):
        total += sign * character_value(shape, rest, memo)
    if memo is not None:
        memo[key] = total
    return total


class CharacterTable:
    """A shared memo store for character evaluations.

    Evaluation is pure; several workers may each own a table, or share one
    with externally synchronized insertion, and must get identical values.
    """

    def __init__(self):
        self._memo: dict = {}

    def character(self, lam: Partition, rho) -> int:
        parts = rho.parts if isinstance(rho, CycleType) else tuple(rho)
        if sum(lam) != sum(parts):
            raise SizeMismatch(f"|lam|={sum(lam)} but cycle type has size {sum(parts)}")
        return character_value(lam, parts, self._memo)

    def dimension(self, lam: Partition) -> int:
        """Character on the identity class, checked against the hook count."""
        value = self.character(lam, (1,) * sum(lam))
        expected = syt_count(lam)
        if value != expected:
            raise InvariantViolation(f"dimension mismatch for {lam}: {value} != {expected}")
        return value

    def clear(self):
        self._memo.clear()

    def __len__(self):
        return len(self._memo)


DEFAULT_TABLE = CharacterTable()


def character(lam: Partition, rho) -> int:
    return DEFAULT_TABLE.character(lam, rho)


def dimension(lam: Partition) -> int:
    return DEFAULT_TABLE.dimension(lam)
