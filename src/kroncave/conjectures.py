"""Executable conjecture checks, counterexample reproductions, and scans.

Every check returns a ViolationReport whose violations list is empty exactly
when the conjectured inequality held on the scanned set. Reports are
deterministic: scans enumerate work in canonical order and merge results in
that same order regardless of worker count. The canonical serialized form
omits wall-clock time; the full JSON form includes it.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial, reduce
from typing import Callable, Iterator, NamedTuple, Sequence

from .closed_forms import reduced_hook, reduced_two_row
from .coefficients import (
    _STABLE_PRODUCTS,
    _lr_square,
    _padded_share,
    _settle_shares,
    _tensor_square,
    kronecker,
    lr_coefficient,
    lr_expand,
    reduced_kronecker,
    stable_ring_compare,
    stable_ring_multiply,
    tensor_decompose,
)
from .errors import SizeMismatch
from .partitions import (
    Partition,
    canonical_key,
    interleave_split,
    midpoint,
    padded_syt_count,
    pair_key,
    partitions_of,
    partitions_up_to,
    union_parts,
)
from .store import format_partition


class Violation(NamedTuple):
    """One failed comparison; lhs is the conjectured-larger side, lhs < rhs."""

    lam: str
    mu: str
    nu: str
    lhs: int
    rhs: int


class ViolationReport(NamedTuple):
    subject: str
    pairs_scanned: int = 0
    skipped: int = 0
    violations: Sequence[Violation] = ()
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "subject": self.subject,
            "pairsScanned": self.pairs_scanned,
            "skipped": self.skipped,
            "violations": [
                {"lambda": v.lam, "mu": v.mu, "nu": v.nu, "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
        }
        if include_elapsed:
            out["elapsedMillis"] = self.elapsed_ms
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def canonical_json(self) -> str:
        """Byte-stable serialization: identical inputs give identical bytes."""
        return json.dumps(self.to_json_dict(include_elapsed=False), indent=None)


def _elapsed_ms(start: float) -> int:
    return int((time.monotonic() - start) * 1000)


# -- one check body for every scan row ------------------------------------------


class Ring(NamedTuple):
    """How a scan row multiplies classes; only the stable ring reads the cache."""

    multiply: Callable[[tuple, object], dict]  # (factors, cache) -> product {nu: c}, read only
    same_size: bool = False  # classes of one S_n: a payload's parts have one size
    targets: bool = False  # a check counts its size's targets as scanned, not one pair


def _stable_product(factors, cache) -> dict:
    """Left-associated stable product of single classes; associativity is
    verified separately, so the bracketing only fixes the evaluation order."""
    multiply = partial(stable_ring_multiply, cache=cache)
    return reduce(multiply, ({q: 1} for q in factors))


# The engine memoizes stable products. The fixed-size rings memoize squares
# only: many pairs share a midpoint, and a diagonal pair (p, p) is a square.
_STABLE = Ring(_stable_product)
_SYMMETRIC = Ring(lambda f, cache: _tensor_square(f[0]) if f[0] == f[1] else tensor_decompose(*f),
                  same_size=True)
_SCHUR = Ring(lambda f, cache: _lr_square(f[0]) if f[0] == f[1] else lr_expand(*f),
              targets=True)


def _midpoint_squared(parts: tuple) -> tuple:
    """The larger side's factors for a pair: its exact midpoint, twice."""
    mid = midpoint(*parts, "exact")  # NotIntegral propagates to the caller
    return mid, mid


def _interleaved(parts: tuple) -> tuple:
    """The larger side's factors: all parts merged, then dealt into len(parts) classes."""
    return tuple(interleave_split(reduce(union_parts, parts), len(parts)))


# -- payloads ------------------------------------------------------------------
# A scan row declares its enumerator: (max_boxes, equal_sizes, n) -> (payloads,
# skipped), its payloads in canonical order and the number of candidates it
# left out. equal_sizes is the ring's same_size; n, the parts of an n-tuple
# row, is read by that row only.


def _multisets_with_total(max_boxes: int, n: int) -> Iterator[tuple]:
    """Multisets of n partitions with total size <= max_boxes, canonical order.

    At most max_boxes parts are non-empty, so the empty parts lead, most
    first, and the recursion runs over the non-empty ones only.
    """
    pool = list(partitions_up_to(max_boxes))[1:]  # non-empty, size-major ascending

    def rec(start: int, remaining: int, chosen: tuple):
        if len(chosen) == n:
            yield chosen
            return
        for i in range(start, len(pool)):
            p = pool[i]
            if sum(p) > remaining:
                break
            yield from rec(i, remaining - sum(p), chosen + (p,))

    for empties in range(n, max(0, n - max_boxes) - 1, -1):
        yield from rec(0, max_boxes, ((),) * empties)


def _all_multisets(max_boxes: int, equal_sizes: bool, n: int) -> tuple[list, int]:
    return list(_multisets_with_total(max_boxes, n)), 0


def _parity_signature(p: Partition) -> tuple[int, ...]:
    """The positions of p's odd parts: its parts mod 2, trailing zeros
    dropped. Two partitions have an exact midpoint exactly when their
    signatures agree."""
    return tuple(i for i, x in enumerate(p) if x % 2)


def _pairs(
    max_boxes: int, equal_sizes: bool, n: int, signature=lambda p: None
) -> tuple[list, int]:
    """Unordered pairs with |lam| + |mu| <= max_boxes and equal signatures,
    each in pair_key order, all in canonical order; with equal_sizes, only
    pairs of one size. Each size is bucketed by signature, so only kept
    pairs are built; the other candidates, p(a) p(b) of sizes a < b and
    p(a)(p(a) + 1)/2 of sizes a = b, are counted as skipped. The default
    signature is constant: every pair is kept, none skipped."""
    buckets = []  # sizes up to the largest second size
    for size in range(max_boxes // 2 + 1 if equal_sizes else max_boxes + 1):
        bucket: dict = {}
        for p in sorted(partitions_of(size)):
            bucket.setdefault(signature(p), []).append(p)
        buckets.append(bucket)
    pairs: list = []
    candidates = 0
    for total in range(max_boxes + 1):
        for a in range(total // 2 + 1):  # canonical order puts the smaller size first
            b = total - a
            if equal_sizes and a != b:
                continue
            count = len(partitions_of(a))
            candidates += count * (count + 1) // 2 if a == b else count * len(partitions_of(b))
            for lam in sorted(partitions_of(a)):
                mates = buckets[b].get(signature(lam), ())
                pairs += [(lam, mu) for mu in mates if a < b or lam <= mu]
    return pairs, candidates - len(pairs)


_midpoint_pairs = partial(_pairs, signature=_parity_signature)


class ScanRow(NamedTuple):
    ring: Ring
    larger: Callable[[tuple], tuple]  # parts -> the factors of the larger side
    payloads: Callable[[int, bool, int], tuple]  # the enumerator a scan takes its payloads from
    pairs: bool = True  # payloads are (lam, mu) pairs; else n-tuples, n set per scan

    @property
    def stable(self) -> bool:  # the check compares stable products, which a cache can serve
        return self.ring is _STABLE


# Each inequality is one row, and check_payload checks every row. scan() and
# its workers look check_payload up as a module global at call time, so
# rebinding it reaches every scan (perfbench's conjectures.check span does).
# The stable sort and chain inequalities are false, so their scans report
# violations. sort fails from 4 boxes on: (1,1), (2) splits to (2,1), (1),
# whose product vanishes at target (1) by the size triangle inequality.
# chain with two inputs is sort; with three its smallest failure is
# (1), (1,1), (2), at 5 boxes.
SCANS = {
    "midpoint_reduced": ScanRow(_STABLE, _midpoint_squared, _midpoint_pairs),
    "midpoint_kronecker": ScanRow(_SYMMETRIC, _midpoint_squared, _midpoint_pairs),
    "sort": ScanRow(_STABLE, _interleaved, _pairs),
    "chain": ScanRow(_STABLE, _interleaved, _all_multisets, pairs=False),
    "schur_lr": ScanRow(_SCHUR, _midpoint_squared, _midpoint_pairs),
}


def _scan_row(conjecture: str) -> ScanRow:
    """The SCANS row of a name spelled with '-' or '_'."""
    row = SCANS.get(conjecture.replace("-", "_"))
    if row is None:
        raise ValueError(f"unknown conjecture {conjecture!r}")
    return row


def check_payload(name: str, payload, *, cache=None) -> ViolationReport:
    """Report the targets at which the product of a row's larger-side factors
    falls below the payload's: a (lam, mu) pair, or the parts of an n-tuple
    row. The larger side goes first, which fixes the order of cache appends."""
    row = _scan_row(name)
    ring = row.ring
    start = time.monotonic()
    label = name.replace("_", "-")
    parts = tuple(map(tuple, payload))
    if row.pairs and len(parts) != 2:
        raise ValueError(f"{label} checks a pair of partitions, got {len(parts)}")
    if not parts:
        raise ValueError("need at least one partition")
    sizes = [sum(p) for p in parts]
    if ring.same_size and len(set(sizes)) > 1:
        raise SizeMismatch(f"sizes differ: {sizes[0]} vs {sizes[1]}")
    factors = row.larger(parts)
    bigger = ring.multiply(factors, cache)
    smaller = ring.multiply(parts, cache)
    if row.pairs:
        lam_text, mu_text = map(format_partition, parts)
        subject = f"{label} lambda={lam_text} mu={mu_text}"
    else:
        lam_text, mu_text = (";".join(map(format_partition, ps)) for ps in (parts, factors))
        subject = f"{label} n={len(parts)} parts={lam_text}"
    below = (nu for nu, c in smaller.items() if bigger.get(nu, 0) < c)
    violations = [
        Violation(lam_text, mu_text, format_partition(nu), bigger.get(nu, 0), smaller[nu])
        for nu in sorted(below, key=canonical_key)
    ]
    scanned = len(partitions_of(sum(sizes))) if ring.targets else 1
    return ViolationReport(subject, scanned, 0, violations, _elapsed_ms(start))


def check_saturation(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    k_max: int,
    mode: str = "reduced",
) -> list[tuple[int, bool]]:
    """Nonvanishing of the coefficient along the scaled triples k=1..k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if mode not in ("kronecker", "reduced"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "kronecker" and not (sum(lam) == sum(mu) == sum(nu)):
        raise SizeMismatch("kronecker saturation needs equal sizes")
    out = []
    for k in range(1, k_max + 1):
        scaled = tuple(tuple(k * x for x in p) for p in (lam, mu, nu))
        if mode == "kronecker":
            value = kronecker(*scaled)
        else:
            value = reduced_kronecker(*scaled)
        out.append((k, value != 0))
    return out


class DimLogConcavity(NamedTuple):
    holds: bool
    lhs: int  # squared tableau count of the padded midpoint
    rhs: int  # product of the padded pair's tableau counts


def check_dim_log_concavity(lam: Partition, mu: Partition, d: int) -> DimLogConcavity:
    """Squared dimension of the padded midpoint vs the padded pair's product."""
    mid = midpoint(lam, mu, "exact")
    lhs = padded_syt_count(mid, d) ** 2
    rhs = padded_syt_count(lam, d) * padded_syt_count(mu, d)
    return DimLogConcavity(lhs >= rhs, lhs, rhs)


def check_murnaghan_littlewood(budget: int) -> ViolationReport:
    """Reduced coefficients must equal LR coefficients at size-additive targets.

    Exhausts all triples with |nu| = |lam| + |mu| <= budget. This is an
    equality check, so a mismatch is recorded with the two values ordered
    smaller first to keep the report invariant.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    start = time.monotonic()
    scanned = 0
    violations = []
    for lam, mu in _pairs(budget, False, 2)[0]:
        product = lr_expand(lam, mu)
        for nu in sorted(partitions_of(sum(lam) + sum(mu))):
            reduced = reduced_kronecker(lam, mu, nu)
            lr = product.get(nu, 0)
            scanned += 1
            if reduced != lr:
                texts = map(format_partition, (lam, mu, nu))
                violations.append(Violation(*texts, *sorted((reduced, lr))))
    return ViolationReport(
        subject=f"murnaghan-littlewood budget={budget}",
        pairs_scanned=scanned,
        violations=violations,
        elapsed_ms=_elapsed_ms(start),
    )


# -- scans ------------------------------------------------------------------


def _worker_task(task):
    """Pool entry point of a fixed-size row: the violations of one payload."""
    return check_payload(*task).violations


def _settle_by_size(payloads, larger, cache, workers: int) -> None:
    """Settle in a pool every reduced value below the top degree of the
    stable products a stable row's checks start with: those of the first two
    larger-side factors and of the first two parts of each payload (an
    n-tuple row multiplies its later factors in after those; one factor
    alone is multiplied by nothing). Pairs the memo or the cache already
    holds are left out, and no pool starts when none is.

    Worker w evaluates the padded values at the sizes n = w mod workers
    (coefficients._padded_share), so each S_n's character rows are filled in
    one process; this one checks and memoizes them (_settle_shares)."""
    firsts = dict.fromkeys(
        pair_key(*side[:2])
        for parts in payloads
        for side in (larger(parts), parts)
        if len(side) > 1
    )
    pairs = [
        pair for pair in firsts
        if pair not in _STABLE_PRODUCTS and (cache is None or cache.get(*pair) is None)
    ]
    if not pairs:
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        shares = list(pool.map(partial(_padded_share, pairs, workers), range(workers)))
    _settle_shares(pairs, shares)


def scan(
    conjecture: str,
    max_boxes: int,
    jobs: int = 1,
    *,
    chain_n: int = 3,
    cache=None,
) -> ViolationReport:
    """Run one SCANS check over every payload within the box budget.

    The row's enumerator decides the payloads and the skipped count alone: a
    midpoint row dispatches only the pairs whose componentwise sums are all
    even, and a dispatched pair that raises is an error. Up to
    min(jobs, dispatched payloads, CPUs) workers run in parallel, and none
    when that is 1.

    A fixed-size row maps its payloads over the pool in chunks and merges
    the violations in enumeration order. A stable row's pool settles the
    padded values of the products its checks start with, split by
    symmetric-group size (_settle_by_size). Then, as with one worker, this
    process checks each payload in enumeration order. It alone reads and
    writes the cache, appending each product as it is computed, so reports
    and cache files do not depend on the job count.
    """
    row = _scan_row(conjecture)
    if max_boxes < 0:
        raise ValueError(f"max_boxes must be >= 0, got {max_boxes}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if chain_n < 1:
        raise ValueError("need at least one partition")
    name = conjecture.replace("-", "_")
    start = time.monotonic()
    subject = f"scan:{name}:max_boxes={max_boxes}"
    payloads, skipped = row.payloads(max_boxes, row.ring.same_size, chain_n)
    if not row.pairs:
        subject += f":n={chain_n}"
    # A forked pool starts every worker up front, so never ask for more
    # workers than there are tasks or CPUs.
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if not row.stable:
        cache = None
    violations: list[Violation] = []
    if workers > 1 and not row.stable:
        from concurrent.futures import ProcessPoolExecutor

        tasks = ((name, payload) for payload in payloads)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (workers * 8))
            for found in pool.map(_worker_task, tasks, chunksize=chunk):
                violations.extend(found)
    else:
        if workers > 1:
            _settle_by_size(payloads, row.larger, cache, workers)
        for payload in payloads:
            violations.extend(check_payload(name, payload, cache=cache).violations)
    return ViolationReport(subject, len(payloads), skipped, violations, _elapsed_ms(start))


# -- golden verification suite ------------------------------------------------

# Expansion of [3,3,1,1] (x) [3,3,1,1] minus [4,4] (x) [2,2,2,2] in the virtual
# representation ring of S_8: 21 nonzero signed terms; the coefficient of
# (2,1,1,1,1,1,1) vanishes.
EXPECTED_SQUARE_DIFFERENCE_S8 = {
    (8,): 1,
    (7, 1): 1,
    (6, 2): 3,
    (6, 1, 1): 1,
    (5, 3): 2,
    (5, 2, 1): 5,
    (5, 1, 1, 1): 3,
    (4, 4): 1,
    (4, 3, 1): 5,
    (4, 2, 2): 5,
    (4, 2, 1, 1): 6,
    (4, 1, 1, 1, 1): 3,
    (3, 3, 2): 2,
    (3, 3, 1, 1): 4,
    (3, 2, 2, 1): 5,
    (3, 2, 1, 1, 1): 5,
    (3, 1, 1, 1, 1, 1): 2,
    (2, 2, 2, 2): 1,
    (2, 2, 2, 1, 1): 1,
    (2, 2, 1, 1, 1, 1): 1,
    (1, 1, 1, 1, 1, 1, 1, 1): -1,
}

GOLDEN_TRIPLE = ((6, 4, 2), (4, 2, 2), (8, 6, 4, 2))
GOLDEN_TRIPLE_VALUE = 6


class GoldenCheck(NamedTuple):
    name: str
    passed: bool
    detail: str
    millis: int


def _golden(name, fn) -> GoldenCheck:
    start = time.monotonic()
    passed, detail = fn()
    return GoldenCheck(name, passed, detail, _elapsed_ms(start))


def run_golden_suite(stretch: bool = False, cache=None) -> list[GoldenCheck]:
    """Curated end-to-end checks of every engine against pinned exact values.

    Every value is recomputed, so no stored record can decide a check: the
    suite reads and writes nothing through cache, just as `verify paper`,
    which passes none. The keyword stays accepted for callers that pass one.
    """
    results = []

    def square_difference():
        result = stable_ring_compare(
            tensor_decompose((3, 3, 1, 1), (3, 3, 1, 1)), tensor_decompose((4, 4), (2, 2, 2, 2))
        )
        diff = {**result.negative, **result.positive}
        ok = diff == EXPECTED_SQUARE_DIFFERENCE_S8
        return ok, f"{len(diff)} signed terms" if ok else f"got {diff}"

    results.append(_golden("virtual-square-difference-s8", square_difference))

    def parity_family():
        bad = [
            n
            for n in range(1, 7)
            if kronecker((n, n), (n, n), (n, n)) != (1 if n % 2 == 0 else 0)
        ]
        return not bad, "N=1..6 alternate 0,1" if not bad else f"failed at N={bad}"

    results.append(_golden("rectangle-parity-family", parity_family))

    def s10_counterexample():
        report = check_payload("midpoint_kronecker", ((6, 4), (2, 2, 2, 2, 2)))
        return bool(report.violations), f"{len(report.violations)} violating targets"

    results.append(_golden("s10-midpoint-counterexample", s10_counterexample))

    def reduced_matches_lr():
        lam, mu, nu = GOLDEN_TRIPLE
        red = reduced_kronecker(lam, mu, nu)
        lr = lr_coefficient(lam, mu, nu)
        if red != GOLDEN_TRIPLE_VALUE or lr != GOLDEN_TRIPLE_VALUE:
            return False, f"golden triple gave reduced={red} lr={lr}"
        report = check_murnaghan_littlewood(5)
        return report.passed, f"golden value 6; {report.pairs_scanned} triples up to budget 5"

    results.append(_golden("reduced-matches-lr-at-additive-sizes", reduced_matches_lr))

    def closed_form_spots():
        mismatches = 0
        checked = 0
        for j in range(4):
            for k in range(j, 4):
                for size in range(j + k + 1):
                    for nu in partitions_of(size):
                        checked += 1
                        if reduced_two_row(j, k, nu) != reduced_kronecker(
                            (j,) if j else (), (k,) if k else (), nu
                        ):
                            mismatches += 1
                        if j >= 1 and reduced_hook(j, k, nu) != reduced_kronecker(
                            (1,) * j, (1,) * k, nu
                        ):
                            mismatches += 1
        return mismatches == 0, f"{checked} spot comparisons, {mismatches} mismatches"

    results.append(_golden("closed-form-oracle-spots", closed_form_spots))

    def saturation_counterexample():
        got = check_saturation((1, 1), (1, 1), (1, 1), 2, "kronecker")
        ok = got == [(1, False), (2, True)]
        return ok, f"k=1 vanishes, k=2 does not" if ok else f"got {got}"

    results.append(_golden("kronecker-saturation-counterexample", saturation_counterexample))

    def vanishing_triple():
        closed = reduced_hook(8, 8, (3, 3))
        engine = reduced_kronecker((1,) * 8, (1,) * 8, (3, 3))
        ok = closed == 0 and engine == 0
        return ok, f"closed={closed} engine={engine}"

    results.append(_golden("column-pair-vanishing-triple", vanishing_triple))

    if stretch:

        def scaled_triple():
            for m in (2, 3):
                value = reduced_kronecker((m,) * 8, (m,) * 8, (3 * m, 3 * m))
                if value:
                    return True, f"scale {m} gives {value}"
            return False, "no nonzero value at scales 2..3"

        results.append(_golden("column-pair-scaled-triple", scaled_triple))

    return results
