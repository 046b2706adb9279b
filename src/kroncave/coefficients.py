"""The three coefficient families and the stable representation ring.

Kronecker coefficients are exact class-weighted character sums; the n!
division is checked exact on every query (InvariantViolation otherwise) so
arithmetic bugs fail loudly instead of rounding. The classes of S_n are the
partitions of n, indexed in the order of partitions_of(n), and
characters.class_sizes(n) gives their sizes in that order. Character rows
over those classes live in one store, filled only at the classes a sum asks
for, so each character is looked up once per clear_caches(). Every read of
a row goes through _row_on, which fills it on the classes asked for, or
_full_row, which fills all of them. A pair
(lam, mu) keeps its support, the classes where chi_lam * chi_mu != 0, with
class size * chi_lam * chi_mu on it. The pair's first shape fills its whole
row, which fixes the support; the other shape and nu are filled only on it.
So the padded golden triple fills one whole row at each of S_29 and S_30,
and partial ones for the rest (2,448 and 1,898 of 4,565 classes at S_29).

Before any character is looked up, kronecker returns 0 for a triple that
fails one of Dvir's six bounds (partitions.dvir_inequalities). Dvir
(J. Algebra 154, 1993) proves that g(lam, mu, nu) != 0 implies
len(nu) <= |lam & mu'|, the cells lam shares with mu'; the symmetry of g in
its arguments and g(lam, mu, nu) = g(lam', mu, nu') give the other five, such
as nu1 <= |lam & mu|. They never rule out a nonzero value, and on a cold
10-box midpoint-reduced scan they rule out 3,314 of the 3,783 zero reduced
values at both padded sizes, so those cost no class sum.

A whole S_n tensor product lam (x) mu is one class sum over a packed
character table (Kronecker substitution). Class rho's column is one integer
whose i-th slot of w bytes holds chi_{nu_i}(rho), for the partitions nu_i of
n in order: col_rho = sum_i chi_{nu_i}(rho) * 2^(8wi). Then

  sum_rho |C_rho| chi_lam(rho) chi_mu(rho) col_rho

holds every nu's class sum at once, and each is read back from its bytes.
No total can leave its slot: by the triangle inequality each is at most
B = sum_rho |C_rho| M_rho^3 in absolute value, with M_rho the largest
|chi_nu(rho)| in the stored column, and a slot holds [-2^(8w-1), 2^(8w-1))
with 2^(8w-1) > B. So a decoded total outside [-B, B] means the packing
broke, and raises InvariantViolation; every total still goes through the n!
divisibility and sign checks. The table is built once per n from complete rows, and
rebuilt when one of its rows is no longer the one the row store holds.

Littlewood-Richardson coefficients count skew tableaux by depth-first
construction with lattice pruning; a whole product s_lam s_mu is one walk
over all LR fillings, adding the labels of mu as horizontal strips (the walk
of Buch's lrcalc). Reduced Kronecker coefficients are the stable values of
padded Kronecker sequences, read at the bound of Briand, Orellana and Rosas
(J. Algebra 2011): g(lam[d], mu[d], nu[d]) is constant for

  d >= floor((|lam|+|mu|+|nu|+lam1+mu1+nu1)/2),

so the engine evaluates at d = max of that bound and the smallest padding
sizes |lam|+lam1, |mu|+mu1, |nu|+nu1 (stabilization_start). It also evaluates
at d+1 and raises InvariantViolation if the two values differ, which would
mean a wrong bound or an arithmetic bug, never data. A whole stable product
takes its top degree, |nu| = |lam| + |mu|, from one lr_expand instead: there
the reduced coefficient is c^nu_{lam mu} (Murnaghan 1938, Littlewood 1958).
The padded engine and its d+1 check cover every lower degree, and every
reduced_kronecker call. The protocol has no settings, so a stored product
never depends on how it was computed; the persistent cache (kroncave.store)
stores whole products only, and only reduced_tensor_decompose reads or
writes it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import is_, mul
from typing import Iterable, NamedTuple

from .characters import DEFAULT_TABLE, _mask, class_sizes
from .errors import InvariantViolation, SizeMismatch
from .partitions import (
    Partition,
    canonical_key,
    conjugate,
    dvir_inequalities,
    murnaghan_inequalities,
    pad,
    part,
    partitions_of,
)

# nu -> character row of nu over the classes partitions_of(|nu|): a tuple once
# complete, before that a list with None at the classes no sum has asked for yet.
_ROWS: dict = {}
# n -> _PackedTable of S_n (module docstring), packed from complete rows of _ROWS.
_PACKED: dict = {}
# (lam, mu) -> (support, weights): the class indices where chi_lam * chi_mu
# != 0, ascending, and class size * chi_lam * chi_mu at each of them.
_PAIR_WEIGHTS: dict = {}
# (pair key, nu) -> stable value
_REDUCED_MEMO: dict = {}
# pair key -> stable VirtualRep coefficient dict
_STABLE_PRODUCTS: dict = {}


def clear_caches() -> None:
    """Drop every in-process memo (character table included)."""
    _ROWS.clear()
    _PACKED.clear()
    _PAIR_WEIGHTS.clear()
    _REDUCED_MEMO.clear()
    _STABLE_PRODUCTS.clear()
    _tensor_square.cache_clear()
    _lr_square.cache_clear()
    DEFAULT_TABLE.clear()
    _mask.cache_clear()
    class_sizes.cache_clear()
    conjugate.cache_clear()
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
    row_b = _row_on(b, support)
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
    row = _row_on(nu, support)
    total = sum(map(mul, map(row.__getitem__, support), weights))
    return _multiplicity(total, nu, n)


def _check_partitions(*ps: Partition) -> None:
    """Raise ValueError unless every argument is a partition (conjugate checks)."""
    for p in ps:
        conjugate(tuple(p))


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of nu in the symmetric group tensor product lam (x) mu.

    dvir_inequalities conjugates all three, so a non-partition raises
    ValueError before any shortcut.
    """
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatch(f"sizes differ: {sum(lam)}, {sum(mu)}, {sum(nu)}")
    if not dvir_inequalities(lam, mu, nu):
        return 0
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
    def single(cls, p: Partition) -> "VirtualRep":
        return cls({tuple(p): 1})

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


class _PackedTable(NamedTuple):
    rows: tuple  # the _ROWS tuples packed, in the order of partitions_of(n)
    columns: tuple  # |C_rho| * col_rho, one integer per class
    width: int  # bytes per slot
    bound: int  # B: no class sum of a pair at n exceeds it in absolute value
    half: int  # 2^(8 width - 1): a slot holds a total plus half
    offset: int  # half in every slot


def _packed_table(n: int) -> _PackedTable:
    """S_n's character table packed by class, as the module docstring describes."""
    shapes = partitions_of(n)
    table = _PACKED.get(n)
    if table is not None and all(map(is_, table.rows, map(_ROWS.get, shapes))):
        return table
    rows = tuple(map(_full_row, shapes))
    sizes = class_sizes(n)
    # two passes over the columns, so they are never all held at once
    bound = sum(size * max(map(abs, col)) ** 3 for size, col in zip(sizes, zip(*rows)))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * len(shapes), "little")
    packed = tuple(
        size
        * (
            int.from_bytes(
                b"".join([(x + half).to_bytes(width, "little") for x in col]), "little"
            )
            - offset
        )
        for size, col in zip(sizes, zip(*rows))
    )
    _PACKED[n] = table = _PackedTable(rows, packed, width, bound, half, offset)
    return table


def tensor_decompose(lam: Partition, mu: Partition) -> VirtualRep:
    """Full decomposition of the S_n tensor product lam (x) mu, as one packed
    class sum (module docstring)."""
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatch(f"sizes differ: {sum(lam)} vs {sum(mu)}")
    table = _packed_table(n)
    weights = map(mul, _full_row(tuple(lam)), _full_row(tuple(mu)))
    total = sum(map(mul, weights, table.columns)) + table.offset
    width, bound, half = table.width, table.bound, table.half
    try:
        data = total.to_bytes(width * len(table.rows), "little")
    except OverflowError:
        raise InvariantViolation(f"packed class sum left its slots in S_{n}") from None
    # the keys are partitions_of(n), so the result skips VirtualRep's size check
    rep = VirtualRep(n=n)
    for start, nu in zip(range(0, len(data), width), partitions_of(n)):
        value = int.from_bytes(data[start : start + width], "little") - half
        if not -bound <= value <= bound:
            raise InvariantViolation(
                f"class sum {value} for {nu} in S_{n} is past the slot bound {bound}"
            )
        value = _multiplicity(value, nu, n)
        if value:
            rep.coeffs[nu] = value
    return rep


@lru_cache(maxsize=None)
def _tensor_square(p: Partition) -> dict[Partition, int]:
    """Coefficient dict of p (x) p, expanded once per clear_caches(): many
    pairs of a fixed-size scan share one midpoint. Callers wrap it in a fresh
    VirtualRep, so the cached dict is never changed."""
    return tensor_decompose(p, p).coeffs


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
    _check_partitions(lam, mu, nu)
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
            if counts[v] == mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice prefix would break
            counts[v] += 1
            grid[r][c] = v
            total += place(idx + 1)
            grid[r][c] = 0
            counts[v] -= 1
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
    _check_partitions(lam, mu)
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


@lru_cache(maxsize=None)
def _lr_square(p: Partition) -> dict[Partition, int]:
    """lr_expand(p, p), expanded once per clear_caches(), as _tensor_square."""
    return lr_expand(p, p)


def stabilization_start(lam: Partition, mu: Partition, nu: Partition) -> int:
    """First padded size d of the stable range, by the Briand-Orellana-Rosas bound."""
    return max(
        sum(lam) + part(lam, 1),
        sum(mu) + part(mu, 1),
        sum(nu) + part(nu, 1),
        (sum(lam) + sum(mu) + sum(nu) + part(lam, 1) + part(mu, 1) + part(nu, 1)) // 2,
    )


def kronecker_sequence(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    d_values: Iterable[int],
) -> list[int]:
    """Padded Kronecker coefficients over the given d values."""
    return [kronecker(pad(lam, d), pad(mu, d), pad(nu, d)) for d in d_values]


def reduced_kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Stable value of the padded Kronecker sequence for this triple.

    Returns 0 immediately when the size triangle inequalities fail. Otherwise
    evaluates at stabilization_start and checks the value one size later, as
    documented in the module docstring.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    _check_partitions(lam, mu, nu)
    if not murnaghan_inequalities(lam, mu, nu):
        return 0
    key = ((lam, mu) if lam <= mu else (mu, lam), nu)
    hit = _REDUCED_MEMO.get(key)
    if hit is not None:
        return hit
    d = stabilization_start(lam, mu, nu)
    value, next_value = kronecker_sequence(lam, mu, nu, (d, d + 1))
    if next_value != value:
        raise InvariantViolation(
            f"padded sequence for {lam},{mu},{nu} moved past the stable bound: "
            f"{value} at d={d}, {next_value} at d={d + 1}"
        )
    _REDUCED_MEMO[key] = value
    return value


def reduced_tensor_decompose(lam: Partition, mu: Partition, *, cache=None) -> VirtualRep:
    """Stable product of two single classes, expanded over all partitions.

    Support is finite: coefficients vanish unless
    ||lam| - |mu|| <= |nu| <= |lam| + |mu|, so only those sizes are
    enumerated. Below the top size each value is a reduced_kronecker call,
    padded and checked one size later. At |nu| = |lam| + |mu| the reduced
    coefficient is the LR coefficient c^nu_{lam mu} (Murnaghan 1938,
    Littlewood 1958), so the top degree is one lr_expand, which never enters
    the per-triple memo: reduced_kronecker keeps padded values only, for
    check_murnaghan_littlewood to compare.

    A persistent cache (kroncave.store) may be supplied. A product missing
    from the in-process memo is read from it, and one computed while it is
    attached is written to it; a memo hit reads and writes nothing.
    """
    lam, mu = tuple(lam), tuple(mu)
    _check_partitions(lam, mu)
    pair = (lam, mu) if lam <= mu else (mu, lam)
    coeffs = _STABLE_PRODUCTS.get(pair)
    if coeffs is None and cache is not None:
        coeffs = cache.get(lam, mu)
    if coeffs is None:
        coeffs = {}
        a, b = sum(lam), sum(mu)
        for size in range(abs(a - b), a + b):
            for nu in sorted(partitions_of(size)):
                value = reduced_kronecker(lam, mu, nu)
                if value:
                    coeffs[nu] = value
        coeffs.update(sorted(lr_expand(lam, mu).items()))
        if cache is not None:
            cache.put(lam, mu, coeffs)
    _STABLE_PRODUCTS[pair] = coeffs
    return VirtualRep(coeffs)


def stable_ring_multiply(a: VirtualRep, b: VirtualRep, *, cache=None) -> VirtualRep:
    """Bilinear extension of the single-class stable product."""
    blocks = [
        (cp * cq, reduced_tensor_decompose(p, q, cache=cache))
        for p, cp in a.items()
        for q, cq in b.items()
    ]
    if len(blocks) == 1 and blocks[0][0] == 1:
        return blocks[0][1]  # two single classes: their product, not a copy
    out: dict[Partition, int] = {}
    for factor, block in blocks:
        for nu, g in block.coeffs.items():
            out[nu] = out.get(nu, 0) + factor * g
    return VirtualRep(out)


class CompareResult(NamedTuple):
    """Sign classification of a - b with the partitions witnessing each sign.

    Both witness dicts are in canonical order.
    """

    verdict: str  # "equal" | "A>=B" | "B>=A" | "incomparable"
    negative: dict  # nu -> (a-b)[nu] < 0, the witnesses against A >= B
    positive: dict  # nu -> (a-b)[nu] > 0, the witnesses against B >= A


def stable_ring_compare(a: VirtualRep, b: VirtualRep) -> CompareResult:
    diff = (a - b).coeffs  # zero terms are never stored

    def in_canonical_order(keys):
        return {p: diff[p] for p in sorted(keys, key=canonical_key)}

    negative = in_canonical_order(p for p, c in diff.items() if c < 0)
    positive = in_canonical_order(p for p, c in diff.items() if c > 0)
    if not negative and not positive:
        verdict = "equal"
    elif not negative:
        verdict = "A>=B"
    elif not positive:
        verdict = "B>=A"
    else:
        verdict = "incomparable"
    return CompareResult(verdict, negative, positive)
