"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama border-strip recursion, evaluated on
the abacus of the shape: its beta-set (first-column hook lengths) as a bitmask
with one bead per row. Removing a border strip of length t moves the bead at b
to b - t when that position is free; the sign is the parity of the beads
strictly between. Zero rows are the trailing set bits, which are shifted out,
so each mask with bit 0 clear is exactly one shape and serves as its memo key.
Cycles are consumed largest first, which shrinks the shape fastest and
maximizes memo reuse across queries. All arithmetic is exact Python ints;
factorials past 20! overflow machine words, so nothing here may ever round.

A conjugacy class of S_n is its cycle type, a partition of n. The classes
are indexed in the order of partitions_of(n), and class_sizes(n) lists their
sizes in that order.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvariantViolation, SizeMismatch
from .partitions import Partition, partitions_of, syt_count


@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the conjugacy classes of S_n, in the order of partitions_of(n).

    The class of cycle type p has n!/z_p elements, z_p = prod k^m * m! over
    the parts k of p with multiplicity m. Equal parts are adjacent, so the
    j-th copy of a part k contributes the factor k * j.
    """
    order = math.factorial(n)
    sizes = []
    for p in partitions_of(n):
        z = 1
        run = 0
        for i, k in enumerate(p):
            run = run + 1 if i and p[i - 1] == k else 1
            z *= k * run
        size, rest = divmod(order, z)
        if rest:
            raise InvariantViolation(f"centralizer order {z} of {p} does not divide {n}!")
        sizes.append(size)
    return tuple(sizes)


@lru_cache(maxsize=None)
def _mask(lam: Partition) -> int:
    """Beta-set bitmask of a partition, zero rows dropped: one bead per row.

    Row i of m sits at bit lam[i] + (m - 1 - i). A mask with bit 0 clear is
    exactly one shape, so the mask stands in for the shape in memo keys.
    """
    m = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        if part < 0 or (i and lam[i - 1] < part):
            raise ValueError(f"not a partition: {lam}")
        mask |= 1 << (part + m - 1 - i)
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def _chi(mask: int, cycles: Partition, memo: dict) -> int:
    """Murnaghan-Nakayama on the abacus: strip a border strip per cycle.

    A strip of length t moves the bead at b to the free position b - t; its
    sign is the parity of the beads strictly between them. A bead landing on
    0 turns the lowest rows into zero rows, which the shift drops.
    """
    if not mask:
        return 1
    key = (mask, cycles)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = cycles[0]
    rest = cycles[1:]
    between = (1 << (t - 1)) - 1
    jump = (1 << t) | 1
    total = 0
    # bit p is set when a bead sits at p + t and p is free
    free = (mask >> t) & ~mask
    while free:
        low = free & -free
        free ^= low
        p = low.bit_length() - 1
        moved = mask ^ (jump << p)
        if not p:
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        value = _chi(moved, rest, memo)
        total += -value if ((mask >> (p + 1)) & between).bit_count() & 1 else value
    memo[key] = total
    return total


def character_value(
    lam: Partition, cycles: Partition, memo: dict | None = None
) -> int:
    """Character of the irreducible labelled lam on the class with these cycles.

    cycles must be sorted weakly decreasing and sum to |lam|. Pass a dict to
    memoize across calls (keyed by beta-set mask and cycles); None gives this
    call a memo of its own.
    """
    return _chi(_mask(lam), tuple(cycles), {} if memo is None else memo)


class CharacterTable:
    """A shared memo store for character evaluations.

    Evaluation is pure; several workers may each own a table, or share one
    with externally synchronized insertion, and must get identical values.
    """

    def __init__(self):
        self._memo: dict = {}

    def character(self, lam: Partition, rho) -> int:
        cycles = tuple(rho)
        # Every memo key has |shape| == |cycles|, so a hit needs no size check.
        try:
            return self._memo[_mask(lam), cycles]
        except KeyError:
            pass
        if sum(lam) != sum(cycles):
            raise SizeMismatch(f"|lam|={sum(lam)} but cycle type has size {sum(cycles)}")
        return character_value(lam, cycles, self._memo)

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
