"""The three coefficient families and the stable representation ring.

Kronecker coefficients are exact class-weighted character sums; the n!
division is checked exact on every query (InvariantViolation otherwise) so
arithmetic bugs fail loudly instead of rounding. The classes of S_n are the
partitions of n, indexed in the order of partitions_of(n), and
characters.class_sizes(n) gives their sizes in that order. Character rows
over those classes live in one store, filled only at the classes a sum asks
for, so each character is looked up once per clear_caches(). Every read of
a row goes through _row_on, which fills it on the classes asked for, or
_full_row, which fills all of them and checks the completed row against the
first orthogonality relation, sum_rho |C_rho| chi(rho)^2 = n!. A pair
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
as nu1 <= |lam & mu|. They never rule out a nonzero value. A cold 10-box
midpoint-reduced scan computes 4,103 reduced values, 1,657 of them zero, and
the bounds rule out 1,467 of those zeros at both padded sizes, so those cost
no class sum.

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
divisibility and sign checks, and the decoded product through the dimension
check in tensor_decompose. The table is built once per n from complete rows, and
rebuilt when one of its rows is no longer the one the row store holds.

Littlewood-Richardson coefficients count skew tableaux by depth-first
construction with lattice pruning; a whole product s_lam s_mu is one walk
over all LR fillings, adding the labels of one factor as horizontal strips
(the walk of Buch's lrcalc), one label per row of that factor. Two
identities let the walk pick its factor:

  c^nu_{lam mu} = c^nu_{mu lam}   and   c^nu_{lam mu} = c^{nu'}_{lam' mu'},

so lr_expand labels with whichever of mu, lam, mu', lam' has the fewest
rows, min(len(lam), len(mu), lam1, mu1), and conjugates the keys back when
it walked the conjugates. lr_coefficient, the oracle the tests hold
lr_expand to, fills tableaux of nu/lam itself and never calls the walk.

Reduced Kronecker coefficients are the stable values of padded Kronecker
sequences, read at the bound of Briand, Orellana and Rosas (J. Algebra
2011): g(lam[d], mu[d], nu[d]) is constant for

  d >= floor((|lam|+|mu|+|nu|+lam1+mu1+nu1)/2),

so the engine evaluates at d = max of that bound and the smallest padding
sizes |lam|+lam1, |mu|+mu1, |nu|+nu1 (stabilization_start). It also evaluates
at d+1 and raises InvariantViolation if the two values differ, which would
mean a wrong bound or an arithmetic bug, never data. A whole stable product
takes its top degree, |nu| = |lam| + |mu|, from one lr_expand instead: there
the reduced coefficient is c^nu_{lam mu} (Murnaghan 1938, Littlewood 1958).
The padded engine and its d+1 check cover every lower degree, and every
reduced_kronecker call. A pooled scan has its workers evaluate the padded
values of its pairs by size (_padded_share), and the parent settles them with
the same check (_settle_shares), which _stable_value alone applies.

Each stable product the engine computes is then checked whole. Evaluating
[lam]*[mu] at the identity of S_n gives the dimension identity

  sum_nu g^nu_{lam mu} f^{nu[n]} = f^{lam[n]} f^{mu[n]},  n = |lam|+|mu|+lam1+mu1,

with f the standard tableau count of a padded shape (padded_syt_count), so
no character is evaluated. That n is Brion's uniform form of the
Briand-Orellana-Rosas bound (Manuscripta Math. 1993), past which the S_n
product is the stable one. A computed product that fails it raises
InvariantViolation before it is memoized or cached. Memo and cache hits are
not checked again: kroncave.store applies the same check to every record
when it loads a file.

The protocol has no settings, so a stored product never depends on how it
was computed; the persistent cache (kroncave.store) stores whole products
only, and only reduced_tensor_decompose reads or writes it.
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
    check_partitions,
    conjugate,
    dvir_inequalities,
    murnaghan_inequalities,
    pad,
    padded_syt_count,
    pair_key,
    part,
    partitions_of,
)

# nu -> character row of nu over the classes partitions_of(|nu|): a tuple once
# complete, before that a list with None at the classes no sum has asked for yet.
_ROWS: dict = {}
# n -> _PackedTable of S_n (module docstring), packed from complete rows of _ROWS.
_PACKED: dict = {}
# pair_key(lam, mu) -> (support, weights): the class indices where
# chi_lam * chi_mu != 0, ascending, and class size * chi_lam * chi_mu at each.
_PAIR_WEIGHTS: dict = {}
# (pair_key(lam, mu), nu) -> stable value
_REDUCED_MEMO: dict = {}
# pair_key(lam, mu) -> stable product {nu: coefficient}; callers get a copy, never this dict
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
    padded_syt_count.cache_clear()
    partitions_of.cache_clear()


def _full_row(nu: Partition) -> tuple[int, ...]:
    """nu's complete character row over partitions_of(|nu|), from the store.

    A row is checked once, when it is completed, against the first
    orthogonality relation sum_rho |C_rho| chi_nu(rho)^2 = n!; a row that
    fails it raises InvariantViolation and is not stored complete."""
    row = _ROWS.get(nu)
    if type(row) is not tuple:
        n = sum(nu)
        row = tuple(_row_on(nu, range(len(partitions_of(n)))))
        if sum(map(mul, class_sizes(n), map(mul, row, row))) != math.factorial(n):
            raise InvariantViolation(f"character row of {nu} fails orthogonality in S_{n}")
        _ROWS[nu] = row
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
    key = pair_key(lam, mu)
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


def tensor_decompose(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Full decomposition of the S_n tensor product lam (x) mu as {nu: multiplicity},
    nonzero entries only, from one packed class sum (module docstring).

    The decoded product is checked against its dimension at the identity,
    sum_nu g_nu f^nu = f^lam f^mu, with each f read from the identity class,
    the last of partitions_of(n), in the complete rows; InvariantViolation
    otherwise."""
    check_partitions(lam, mu)
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatch(f"sizes differ: {sum(lam)} vs {sum(mu)}")
    table = _packed_table(n)
    row_lam, row_mu = _full_row(tuple(lam)), _full_row(tuple(mu))
    total = sum(map(mul, map(mul, row_lam, row_mu), table.columns)) + table.offset
    width, bound, half = table.width, table.bound, table.half
    try:
        data = total.to_bytes(width * len(table.rows), "little")
    except OverflowError:
        raise InvariantViolation(f"packed class sum left its slots in S_{n}") from None
    out = {}
    dimension = 0
    for start, nu, row in zip(range(0, len(data), width), partitions_of(n), table.rows):
        value = int.from_bytes(data[start : start + width], "little") - half
        if not -bound <= value <= bound:
            raise InvariantViolation(
                f"class sum {value} for {nu} in S_{n} is past the slot bound {bound}"
            )
        value = _multiplicity(value, nu, n)
        if value:
            out[nu] = value
            dimension += value * row[-1]
    if dimension != row_lam[-1] * row_mu[-1]:
        raise InvariantViolation(
            f"{lam} (x) {mu} has dimension {dimension}, not {row_lam[-1] * row_mu[-1]}, in S_{n}"
        )
    return out


@lru_cache(maxsize=None)
def _tensor_square(p: Partition) -> dict[Partition, int]:
    """Coefficient dict of p (x) p, expanded once per clear_caches(): a
    fixed-size scan multiplies every diagonal pair (p, p) through here, and
    many of its pairs share the midpoint p. Callers only read it."""
    return tensor_decompose(p, p)


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
    check_partitions(lam, mu, nu)
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

    One _lr_walk, which adds one label per row of its second factor. By
    c^nu_{lam mu} = c^nu_{mu lam} = c^{nu'}_{lam' mu'} the walk may run on
    the pair in either order, or on the conjugates with its keys conjugated
    back, so it runs on whichever labels with the fewest rows:
    min(len(lam), len(mu), lam1, mu1).
    """
    lam, mu = tuple(lam), tuple(mu)
    check_partitions(lam, mu)
    flip = min(part(lam, 1), part(mu, 1)) < min(len(lam), len(mu))
    if flip:
        lam, mu = conjugate(lam), conjugate(mu)
    if len(mu) > len(lam):
        lam, mu = mu, lam
    out = _lr_walk(lam, mu)
    return {conjugate(nu): c for nu, c in out.items()} if flip else out


def _lr_walk(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """s_lam s_mu by one walk over all LR fillings: label i = 1..len(mu) adds
    mu_i cells to the current shape as a horizontal strip, and the lattice
    condition keeps the number of i's in rows <= r at most the number of
    (i-1)'s in rows <= r-1. Each completed filling adds 1 to its outer shape.
    """
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
    """lr_expand(p, p), expanded once per clear_caches() for every diagonal
    pair of a scan, as _tensor_square."""
    return lr_expand(p, p)


def stabilization_start(lam: Partition, mu: Partition, nu: Partition) -> int:
    """First padded size d of the stable range, by the Briand-Orellana-Rosas bound."""
    check_partitions(lam, mu, nu)
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


def _stable_value(
    lam: Partition, mu: Partition, nu: Partition, d: int, value: int, next_value: int
) -> int:
    """The reduced coefficient of a triple from its padded values at d =
    stabilization_start and d + 1, memoized. They must agree (module
    docstring); InvariantViolation otherwise."""
    if next_value != value:
        raise InvariantViolation(
            f"padded sequence for {lam},{mu},{nu} moved past the stable bound: "
            f"{value} at d={d}, {next_value} at d={d + 1}"
        )
    _REDUCED_MEMO[(pair_key(lam, mu), nu)] = value
    return value


def reduced_kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Stable value of the padded Kronecker sequence for this triple.

    Returns 0 immediately when the size triangle inequalities fail. Otherwise
    evaluates at stabilization_start and checks the value one size later, as
    documented in the module docstring.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    check_partitions(lam, mu, nu)
    if not murnaghan_inequalities(lam, mu, nu):
        return 0
    hit = _REDUCED_MEMO.get((pair_key(lam, mu), nu))
    if hit is not None:
        return hit
    d = stabilization_start(lam, mu, nu)
    return _stable_value(lam, mu, nu, d, *kronecker_sequence(lam, mu, nu, (d, d + 1)))


def _lower_targets(lam: Partition, mu: Partition):
    """The targets nu of [lam]*[mu] below its top degree, in the order its
    product is assembled: ||lam| - |mu|| <= |nu| < |lam| + |mu|, each size
    sorted. Every one meets the size triangle inequalities."""
    a, b = sum(lam), sum(mu)
    for size in range(abs(a - b), a + b):
        yield from sorted(partitions_of(size))


def _padded_targets(pairs):
    """(lam, mu, nu, d) for every lower target of each pair, d its stabilization_start."""
    for lam, mu in pairs:
        for nu in _lower_targets(lam, mu):
            yield lam, mu, nu, stabilization_start(lam, mu, nu)


def _padded_share(pairs, workers: int, w: int) -> list[int]:
    """Worker w's share of the padded values of these pairs' lower targets: the
    Kronecker coefficient at whichever of d and d + 1 is w mod workers, in
    _padded_targets order. So among the workers each S_n is evaluated by one
    alone, and _settle_shares reads the values back. It reads no memo of
    reduced values, so its answer depends on its arguments alone."""
    out = []
    for lam, mu, nu, d in _padded_targets(pairs):
        out += kronecker_sequence(lam, mu, nu, [n for n in (d, d + 1) if n % workers == w])
    return out


def _settle_shares(pairs, shares) -> None:
    """Memoize every lower-target value of these pairs from the _padded_share of
    each worker, in worker order, checking each value at d + 1 (_stable_value).
    A later reduced_tensor_decompose of a pair then evaluates nothing padded."""
    values = [iter(share) for share in shares]
    workers = len(values)
    for lam, mu, nu, d in _padded_targets(pairs):
        value = next(values[d % workers])
        _stable_value(lam, mu, nu, d, value, next(values[(d + 1) % workers]))


def check_dimension_identity(lam: Partition, mu: Partition, product: dict) -> None:
    """Raise ValueError unless product, as [lam]*[mu], passes the dimension
    identity of the module docstring. A nu too large to pad to n raises
    PadTooSmall, which is a ValueError."""
    n = sum(lam) + sum(mu) + part(lam, 1) + part(mu, 1)
    total = sum(c * padded_syt_count(nu, n) for nu, c in product.items())
    if total != padded_syt_count(lam, n) * padded_syt_count(mu, n):
        raise ValueError(f"product fails the dimension identity at n={n}")


def reduced_tensor_decompose(lam: Partition, mu: Partition, *, cache=None) -> dict[Partition, int]:
    """Stable product of two single classes as {nu: reduced coefficient},
    nonzero entries only, in a fresh dict.

    Support is finite: coefficients vanish unless
    ||lam| - |mu|| <= |nu| <= |lam| + |mu|, so only those sizes are
    enumerated. Below the top size each value is a reduced_kronecker call,
    padded and checked one size later. At |nu| = |lam| + |mu| the reduced
    coefficient is the LR coefficient c^nu_{lam mu} (Murnaghan 1938,
    Littlewood 1958), so the top degree is one lr_expand, which never enters
    the per-triple memo: reduced_kronecker keeps padded values only, for
    check_murnaghan_littlewood to compare.

    A computed product must pass check_dimension_identity, or
    InvariantViolation is raised. A persistent cache (kroncave.store) may be
    supplied. A product missing from the in-process memo is read from it,
    and one computed while it is attached is written to it; a memo hit
    reads and writes nothing. Memo and cache both key a product by
    partitions.pair_key, so [lam]*[mu] and [mu]*[lam] are one entry.
    """
    lam, mu = tuple(lam), tuple(mu)
    check_partitions(lam, mu)
    pair = pair_key(lam, mu)
    coeffs = _STABLE_PRODUCTS.get(pair)
    if coeffs is None and cache is not None:
        coeffs = cache.get(lam, mu)
    if coeffs is None:
        coeffs = {}
        for nu in _lower_targets(lam, mu):
            value = reduced_kronecker(lam, mu, nu)
            if value:
                coeffs[nu] = value
        coeffs.update(lr_expand(lam, mu))
        try:
            check_dimension_identity(lam, mu, coeffs)
        except ValueError as exc:
            raise InvariantViolation(f"stable product {lam} * {mu}: {exc}") from exc
        if cache is not None:
            cache.put(lam, mu, coeffs)
    _STABLE_PRODUCTS[pair] = coeffs
    return dict(coeffs)


def stable_ring_multiply(a: dict, b: dict, *, cache=None) -> dict[Partition, int]:
    """Bilinear extension of the single-class stable product to {class: coefficient}
    dicts; a single class p is {p: 1} and the unit is {(): 1}. Classes are
    multiplied in canonical order, which fixes the order of cache appends."""
    blocks = [
        (a[p] * b[q], reduced_tensor_decompose(p, q, cache=cache))
        for p in sorted(a, key=canonical_key)
        for q in sorted(b, key=canonical_key)
    ]
    if len(blocks) == 1 and blocks[0][0] == 1:
        return blocks[0][1]  # two single classes: their product, already a fresh dict
    out: dict[Partition, int] = {}
    for factor, block in blocks:
        for nu, g in block.items():
            out[nu] = out.get(nu, 0) + factor * g
    return {nu: c for nu, c in out.items() if c}


class CompareResult(NamedTuple):
    """Sign classification of a - b with the partitions witnessing each sign.

    Both witness dicts are in canonical order.
    """

    verdict: str  # "equal" | "A>=B" | "B>=A" | "incomparable"
    negative: dict  # nu -> (a-b)[nu] < 0, the witnesses against A >= B
    positive: dict  # nu -> (a-b)[nu] > 0, the witnesses against B >= A


def stable_ring_compare(a: dict, b: dict) -> CompareResult:
    """Compare two {class: coefficient} dicts coefficientwise; every class
    must be a partition."""
    check_partitions(*a, *b)
    diff = dict(a)
    for p, c in b.items():
        diff[p] = diff.get(p, 0) - c
    negative, positive = {}, {}
    for p in sorted(diff, key=canonical_key):
        if diff[p] < 0:
            negative[p] = diff[p]
        elif diff[p] > 0:
            positive[p] = diff[p]
    if not negative and not positive:
        verdict = "equal"
    elif not negative:
        verdict = "A>=B"
    elif not positive:
        verdict = "B>=A"
    else:
        verdict = "incomparable"
    return CompareResult(verdict, negative, positive)
