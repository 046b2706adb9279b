"""The three coefficient families and the stable representation ring.

Kronecker coefficients are exact class-weighted character sums; the n!
division is checked exact on every query (InvariantViolation otherwise) so
arithmetic bugs fail loudly instead of rounding. The classes of S_n are the
partitions of n, indexed in the order of partitions_of(n), and
characters.class_sizes(n) gives their sizes in that order. Character rows
over those classes live in one store, filled only at the classes a sum asks
for, so each character is looked up once per clear_caches(). A pair
(lam, mu) keeps its support, the classes where chi_lam * chi_mu != 0, with
class size * chi_lam * chi_mu on it. A single coefficient gathers nu's row on
that support, so a sum at S_40 never pays for a whole row; a whole S_n tensor
product takes one dense dot product per nu with complete rows.

Littlewood-Richardson coefficients count skew tableaux by depth-first
construction with lattice pruning; a whole product s_lam s_mu is one walk
over all LR fillings, adding the labels of mu as horizontal strips (the walk
of Buch's lrcalc). Reduced Kronecker coefficients are the stable values of
padded Kronecker sequences, detected by a plateau protocol:

  start at d0 = max(|lam|+lam1, |mu|+mu1, |nu|+nu1, |lam|+|mu|+|nu|), step d
  upward, and accept as soon as DEFAULT_WINDOW = 2 consecutive values agree.
  Beyond the hard cap d0 + 2*(|lam|+|mu|+|nu|) + 2 the computation refuses to
  answer (StabilizationNotDetected) rather than guess. The protocol has no
  settings, so a stored value never depends on how it was computed.

Padded sequences are weakly increasing, which the engine also checks on every
trace; a decrease is an implementation bug (InvariantViolation), never data.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, NamedTuple

from .characters import DEFAULT_TABLE, _mask, class_sizes
from .errors import InvariantViolation, SizeMismatch, StabilizationNotDetected
from .partitions import (
    EMPTY,
    Partition,
    canonical_key,
    murnaghan_inequalities,
    pad,
    part,
    partitions_of,
)

DEFAULT_WINDOW = 2

# nu -> character row of nu over the classes partitions_of(|nu|): a tuple once
# complete, before that a list with None at the classes no sum has asked for yet.
_ROWS: dict = {}
# (lam, mu) -> (support, weights): the class indices where chi_lam * chi_mu
# != 0, ascending, and class size * chi_lam * chi_mu at each of them.
# Values are table-independent exact integers, so one shared store is safe.
_PAIR_WEIGHTS: dict = {}
# (pair key, nu) -> stable value
_REDUCED_MEMO: dict = {}
# pair key -> stable VirtualRep coefficient dict
_STABLE_PRODUCTS: dict = {}


def clear_caches() -> None:
    """Drop every in-process memo (character table included)."""
    _ROWS.clear()
    _PAIR_WEIGHTS.clear()
    _REDUCED_MEMO.clear()
    _STABLE_PRODUCTS.clear()
    DEFAULT_TABLE.clear()
    _mask.cache_clear()
    class_sizes.cache_clear()
    partitions_of.cache_clear()


def _full_row(nu: Partition) -> tuple[int, ...]:
    """nu's complete character row over partitions_of(|nu|), from the store."""
    row = _ROWS.get(nu)
    if type(row) is not tuple:
        row = _ROWS[nu] = tuple(_row_on(nu, range(len(partitions_of(sum(nu))))))
    return row


def _row_on(nu: Partition, support) -> list | tuple:
    """nu's row from the store, filled at least at the class indices in support."""
    row = _ROWS.get(nu)
    if type(row) is tuple:
        return row
    classes = partitions_of(sum(nu))
    if row is None:
        row = _ROWS[nu] = [None] * len(classes)
    character = DEFAULT_TABLE.character
    for i in support:
        if row[i] is None:
            row[i] = character(nu, classes[i])
    return row


def _pair_weights(lam: Partition, mu: Partition):
    key = (lam, mu) if lam <= mu else (mu, lam)
    hit = _PAIR_WEIGHTS.get(key)
    if hit is not None:
        return hit
    a, b = key
    row_a = _full_row(a)
    support = [i for i, x in enumerate(row_a) if x]
    row_b = row_a if a == b else _row_on(b, support)
    support = tuple(i for i in support if row_b[i])
    sizes = class_sizes(sum(a))
    weights = tuple(sizes[i] * row_a[i] * row_b[i] for i in support)
    _PAIR_WEIGHTS[key] = out = (support, weights)
    return out


def _multiplicity(total: int, nu: Partition, n: int) -> int:
    """A class-weighted character sum over n!, checked exact and non-negative."""
    value, rest = divmod(total, math.factorial(n))
    if rest:
        raise InvariantViolation(f"non-integral character sum {total} for {nu} in S_{n}")
    if value < 0:
        raise InvariantViolation(f"negative multiplicity {value} for {nu} in S_{n}")
    return value


def _class_sum(support, weights, nu: Partition, n: int) -> int:
    """Multiplicity of nu: nu's row gathered on the pair's support, dotted with
    the pair's weights, over n!."""
    row = _ROWS.get(nu)
    if row is not None:
        try:
            total = sum(map(mul, map(row.__getitem__, support), weights))
        except TypeError:  # None * weight: a hole on this support
            row = None
    if row is None:
        row = _row_on(nu, support)
        total = sum(map(mul, map(row.__getitem__, support), weights))
    return _multiplicity(total, nu, n)


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of nu in the symmetric group tensor product lam (x) mu."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatch(f"sizes differ: {sum(lam)}, {sum(mu)}, {sum(nu)}")
    return _class_sum(*_pair_weights(lam, mu), nu, n)


class VirtualRep:
    """Finite integer combination of irreducible classes.

    With n set, keys are partitions of n: a virtual character of S_n. With
    n None, keys are stable classes of any sizes, multiplied by reduced
    Kronecker coefficients, under which the class of the empty partition is
    the unit. Negative coefficients are allowed; zero coefficients are never
    stored.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs: dict[Partition, int] | None = None, n: int | None = None):
        self.n = n
        cleaned = {}
        for p, c in (coeffs or {}).items():
            if n is not None and sum(p) != n:
                raise SizeMismatch(f"{p} is not a partition of {n}")
            if c:
                cleaned[p] = c
        self.coeffs = cleaned

    @classmethod
    def single(cls, p: Partition, coeff: int = 1) -> "VirtualRep":
        return cls({tuple(p): coeff})

    def __getitem__(self, p: Partition) -> int:
        return self.coeffs.get(tuple(p), 0)

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: canonical_key(kv[0]))

    def _combine(self, other: "VirtualRep", sign: int) -> "VirtualRep":
        if self.n != other.n:
            raise SizeMismatch(f"cannot combine reps with n={self.n} and n={other.n}")
        merged = dict(self.coeffs)
        for p, c in other.coeffs.items():
            merged[p] = merged.get(p, 0) + sign * c
        return VirtualRep(merged, self.n)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if self.n is not None or other.n is not None:
            return NotImplemented  # only stable classes multiply here
        return stable_ring_multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, VirtualRep)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        n = "" if self.n is None else f"n={self.n}, "
        return f"VirtualRep({n}{dict(self.items())!r})"


VirtualStableRep = VirtualRep


def tensor_decompose(lam: Partition, mu: Partition) -> VirtualRep:
    """Full decomposition of the S_n tensor product lam (x) mu."""
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatch(f"sizes differ: {sum(lam)} vs {sum(mu)}")
    lam, mu = tuple(lam), tuple(mu)
    weights = list(map(mul, class_sizes(n), map(mul, _full_row(lam), _full_row(mu))))
    coeffs = {}
    for nu in partitions_of(n):
        coeffs[nu] = _multiplicity(sum(map(mul, _full_row(nu), weights)), nu, n)
    return VirtualRep(coeffs, n)


def _contains(outer: Partition, inner: Partition) -> bool:
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: skew tableaux of shape nu/lam, content mu.

    Cells are filled in reverse reading order (each row right to left, top
    row first) so row weakness, column strictness, and the lattice property
    of the reading word can all prune each placement.
    """
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not _contains(nu, lam) or not _contains(nu, mu):
        return 0
    if not mu:
        return 1  # nu == lam forced by the size and containment checks
    rows = len(nu)
    width = nu[0]
    inner = [part(lam, i) for i in range(1, rows + 1)]
    cells = [
        (r, c) for r in range(rows) for c in range(nu[r] - 1, inner[r] - 1, -1)
    ]
    values = len(mu)
    remaining = list(mu)
    counts = [0] * (values + 1)
    grid = [[0] * width for _ in range(rows)]  # 0 marks unfilled / inner cells

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = grid[r][c + 1] if c + 1 < nu[r] else values
        above = grid[r - 1][c] if r > 0 and c >= inner[r - 1] else 0
        total = 0
        for v in range(above + 1, right + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice prefix would break
            remaining[v - 1] -= 1
            counts[v] += 1
            grid[r][c] = v
            total += place(idx + 1)
            grid[r][c] = 0
            counts[v] -= 1
            remaining[v - 1] += 1
        return total

    return place(0)


def lr_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """The whole product s_lam s_mu as {nu: c^nu_{lam mu}}, nonzero entries only.

    One walk over all LR fillings: label i = 1..len(mu) adds mu_i cells to the
    current shape as a horizontal strip, and the lattice condition keeps the
    number of i's in rows <= r at most the number of (i-1)'s in rows <= r-1.
    Each completed filling adds 1 to its outer shape.
    """
    lam, mu = tuple(lam), tuple(mu)
    height = len(lam) + len(mu)
    out: dict[Partition, int] = {}

    def add_label(i: int, shape: tuple, limit: list) -> None:
        # limit[r]: most copies of label i allowed in rows <= r
        if i == len(mu):
            nu = shape[: height - shape.count(0)]
            out[nu] = out.get(nu, 0) + 1
            return
        grown = list(shape)
        below = [0] * height  # copies of label i in rows <= r

        def strip(r: int, left: int, placed: int) -> None:
            if not left:
                below[r:] = [placed] * (height - r)
                add_label(i + 1, tuple(grown), [0] + below[:-1])
                return
            if r and left > shape[r - 1] - shape[-1]:
                return  # rows r.. cannot hold what is left
            room = shape[r - 1] - shape[r] if r else left
            for a in range(min(left, room, limit[r] - placed), -1, -1):
                grown[r] = shape[r] + a
                below[r] = placed + a
                strip(r + 1, left - a, placed + a)
            grown[r] = shape[r]

        strip(0, mu[i], 0)

    add_label(0, lam + (0,) * len(mu), [sum(mu)] * height)
    return out


def kostka(lam: Partition, mu: Partition) -> int:
    """Weight multiplicity: semistandard tableaux of shape lam and content mu.

    Computed through the LR identity with nu_i the suffix sums of mu and
    kappa the same sums shifted by one row.
    """
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"sizes differ: {sum(lam)} vs {sum(mu)}")
    n = len(mu)
    nu = tuple(sum(mu[j] for j in range(i, n)) for i in range(n))
    kappa = tuple(
        s for s in (sum(mu[j] for j in range(i + 1, n)) for i in range(n)) if s > 0
    )
    return lr_coefficient(kappa, lam, nu)


def stabilization_start(lam: Partition, mu: Partition, nu: Partition) -> int:
    return max(
        sum(lam) + part(lam, 1),
        sum(mu) + part(mu, 1),
        sum(nu) + part(nu, 1),
        sum(lam) + sum(mu) + sum(nu),
    )


def stabilization_cap(lam: Partition, mu: Partition, nu: Partition) -> int:
    return stabilization_start(lam, mu, nu) + 2 * (sum(lam) + sum(mu) + sum(nu)) + 2


def kronecker_sequence(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    d_values: Iterable[int],
) -> list[int]:
    """Padded Kronecker coefficients over the given d values."""
    return [kronecker(pad(lam, d), pad(mu, d), pad(nu, d)) for d in d_values]


def reduced_kronecker(lam: Partition, mu: Partition, nu: Partition, *, cache=None) -> int:
    """Stable value of the padded Kronecker sequence for this triple.

    Returns 0 immediately when the size triangle inequalities fail. Otherwise
    runs the plateau protocol documented in the module docstring. A persistent
    cache object (see kroncave.store) may be supplied.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not murnaghan_inequalities(lam, mu, nu):
        return 0
    pair = (lam, mu) if lam <= mu else (mu, lam)
    key = (pair, nu)
    hit = _REDUCED_MEMO.get(key)
    if hit is not None:
        if cache is not None:
            cache.put("redkron", pair[0], pair[1], nu, hit)
        return hit
    if cache is not None:
        stored = cache.get("redkron", pair[0], pair[1], nu)
        if stored is not None:
            _REDUCED_MEMO[key] = stored
            return stored
    d0 = stabilization_start(lam, mu, nu)
    cap = stabilization_cap(lam, mu, nu)
    streak = 0
    prev = None
    for d in range(d0, cap + 1):
        value = kronecker(pad(lam, d), pad(mu, d), pad(nu, d))
        if prev is not None and value < prev:
            raise InvariantViolation(f"padded sequence decreased for {lam},{mu},{nu}")
        streak = streak + 1 if value == prev else 1
        prev = value
        if streak >= DEFAULT_WINDOW:
            _REDUCED_MEMO[key] = value
            if cache is not None:
                cache.put("redkron", pair[0], pair[1], nu, value)
            return value
    raise StabilizationNotDetected(
        f"no plateau of length {DEFAULT_WINDOW} for {lam},{mu},{nu} up to d={cap}"
    )


def reduced_tensor_decompose(lam: Partition, mu: Partition, *, cache=None) -> VirtualRep:
    """Stable product of two single classes, expanded over all partitions.

    Support is finite: coefficients vanish outside sizes |nu| <= |lam|+|mu|
    satisfying the triangle inequalities, so those candidates are enumerated
    and filtered before any character work.
    """
    lam, mu = tuple(lam), tuple(mu)
    pair = (lam, mu) if lam <= mu else (mu, lam)
    hit = _STABLE_PRODUCTS.get(pair)
    if hit is not None:
        return VirtualRep(hit)
    coeffs = {}
    for size in range(sum(lam) + sum(mu) + 1):
        for nu in sorted(partitions_of(size)):
            if not murnaghan_inequalities(lam, mu, nu):
                continue
            value = reduced_kronecker(lam, mu, nu, cache=cache)
            if value:
                coeffs[nu] = value
    _STABLE_PRODUCTS[pair] = coeffs
    return VirtualRep(coeffs)


def stable_ring_multiply(a: VirtualRep, b: VirtualRep, *, cache=None) -> VirtualRep:
    """Bilinear extension of the single-class stable product."""
    out: dict[Partition, int] = {}
    for p, cp in a.items():
        for q, cq in b.items():
            block = reduced_tensor_decompose(p, q, cache=cache)
            factor = cp * cq
            for nu, g in block.coeffs.items():
                out[nu] = out.get(nu, 0) + factor * g
    return VirtualRep(out)


class CompareResult(NamedTuple):
    """Sign classification of a - b with the partitions witnessing each sign."""

    verdict: str  # "equal" | "A>=B" | "B>=A" | "incomparable"
    negative: dict  # nu -> (a-b)[nu] < 0, the witnesses against A >= B
    positive: dict  # nu -> (a-b)[nu] > 0, the witnesses against B >= A


def stable_ring_compare(a: VirtualRep, b: VirtualRep) -> CompareResult:
    diff = a - b
    negative = {p: c for p, c in diff.items() if c < 0}
    positive = {p: c for p, c in diff.items() if c > 0}
    if not negative and not positive:
        verdict = "equal"
    elif not negative:
        verdict = "A>=B"
    elif not positive:
        verdict = "B>=A"
    else:
        verdict = "incomparable"
    return CompareResult(verdict, negative, positive)
