"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama border-strip recursion, evaluated on
the abacus of the shape: its beta-set (first-column hook lengths) as a bitmask
with one bead per row. Removing a border strip of length t moves the bead at b
to b - t when that position is free; the sign is the parity of the beads
strictly between. A shape has no zero rows (partitions.conjugate is the one
partition rule, and _mask checks through it), so its mask has bit 0 clear;
a strip that empties the lowest rows leaves trailing set bits, which _chi
shifts out, so each mask with bit 0 clear is exactly one shape. The memo has
two levels, memo[cycles][mask] -> value: each remaining cycle type is held
once, with an int-keyed row of the shapes of its size, and _chi is the one
place that probes it. Cycles are consumed largest first, which shrinks the
shape fastest and maximizes memo reuse across queries. All arithmetic is
exact Python ints; factorials past 20! overflow machine words, so nothing
here may ever round.

A conjugacy class of S_n is its cycle type, a partition of n. The classes
are indexed in the order of partitions_of(n), and class_sizes(n) lists their
sizes in that order.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvariantViolation, SizeMismatch
from .partitions import Partition, conjugate, partitions_of, syt_count


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
    """Beta-set bitmask of a partition: one bead per row.

    Row i of m sits at bit lam[i] + (m - 1 - i). conjugate raises ValueError
    unless lam is a partition, whose rows are all positive, so bit 0 is clear
    and the mask stands in for the shape in memo keys.
    """
    conjugate(lam)
    m = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + m - 1 - i)
    return mask


def _chi(mask: int, cycles: Partition, memo: dict) -> int:
    """Murnaghan-Nakayama on the abacus: strip a border strip per cycle.

    A strip of length t moves the bead at b to the free position b - t; its
    sign is the parity of the beads strictly between them. A bead landing on
    0 turns the lowest rows into zero rows, which the shift drops. Values are
    memoized as memo[cycles][mask], so a row only holds shapes of size
    |cycles|.
    """
    if not mask:
        return 1
    row = memo.get(cycles)
    if row is None:
        row = memo[cycles] = {}
    else:
        hit = row.get(mask)
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
    row[mask] = total
    return total


def character_value(
    lam: Partition, cycles: Partition, memo: dict | None = None
) -> int:
    """Character of the irreducible labelled lam on the class with these cycles.

    lam must be a partition (ValueError otherwise), and cycles must be sorted
    weakly decreasing and sum to |lam| (SizeMismatch otherwise). Pass a dict
    to memoize across calls (keyed by cycles, then by beta-set mask); None
    gives this call a memo of its own. The memo is probed only in _chi.
    """
    cycles = tuple(cycles)
    mask = _mask(lam)
    if sum(lam) != sum(cycles):
        raise SizeMismatch(f"|lam|={sum(lam)} but cycle type has size {sum(cycles)}")
    return _chi(mask, cycles, {} if memo is None else memo)


class CharacterTable:
    """The engine's one character memo, DEFAULT_TABLE.

    coefficients._row_on fills character rows through character, so each
    value is evaluated at most once per clear_caches().
    """

    def __init__(self):
        self._memo: dict = {}

    def character(self, lam: Partition, rho) -> int:
        return character_value(lam, rho, self._memo)

    def clear(self):
        self._memo.clear()

    def __len__(self):
        """Memoized (shape, cycles) values, summed over the cycle-type rows."""
        return sum(map(len, self._memo.values()))


DEFAULT_TABLE = CharacterTable()


def dimension(lam: Partition) -> int:
    """Character on the identity class, checked against the hook count."""
    value = character_value(lam, (1,) * sum(lam))
    expected = syt_count(lam)
    if value != expected:
        raise InvariantViolation(f"dimension mismatch for {lam}: {value} != {expected}")
    return value
