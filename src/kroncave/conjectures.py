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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, NamedTuple, Sequence

from .closed_forms import reduced_hook, reduced_two_row
from .coefficients import (
    VirtualRep,
    kronecker,
    lr_coefficient,
    lr_expand,
    reduced_kronecker,
    reduced_tensor_decompose,
    stable_ring_compare,
    stable_ring_multiply,
    tensor_decompose,
)
from .errors import NotIntegral, SizeMismatch
from .partitions import (
    Partition,
    canonical_key,
    interleave_split,
    midpoint,
    pad,
    partitions_of,
    partitions_up_to,
    sort_split,
    syt_count,
    union_parts,
)
from .store import RecordingCache, format_partition


@dataclass(frozen=True)
class Violation:
    """One failed comparison; lhs is the conjectured-larger side, lhs < rhs."""

    lam: str
    mu: str
    nu: str
    lhs: int
    rhs: int


@dataclass
class ViolationReport:
    subject: str
    pairs_scanned: int = 0
    skipped: int = 0
    violations: list[Violation] = field(default_factory=list)
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

    def to_json(self, indent: int | None = 2, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_elapsed), indent=indent)

    def canonical_json(self) -> str:
        """Byte-stable serialization: identical inputs give identical bytes."""
        return json.dumps(self.to_json_dict(include_elapsed=False), indent=None)


def _elapsed_ms(start: float) -> int:
    return int((time.monotonic() - start) * 1000)


def _compare_violations(lam_text, mu_text, bigger: VirtualRep, smaller: VirtualRep):
    cmp = stable_ring_compare(bigger, smaller)
    return [
        Violation(lam_text, mu_text, format_partition(nu), bigger[nu], smaller[nu])
        for nu in sorted(cmp.negative, key=canonical_key)
    ]


def _dominance_report(subject, start, lam, mu, big_pair, cache) -> ViolationReport:
    """Does the stable product of big_pair dominate that of (lam, mu)?"""
    bigger = reduced_tensor_decompose(*big_pair, cache=cache)
    smaller = reduced_tensor_decompose(lam, mu, cache=cache)
    lam_text, mu_text = format_partition(lam), format_partition(mu)
    return ViolationReport(
        subject=f"{subject} lambda={lam_text} mu={mu_text}",
        pairs_scanned=1,
        violations=_compare_violations(lam_text, mu_text, bigger, smaller),
        elapsed_ms=_elapsed_ms(start),
    )


def check_midpoint_reduced(lam: Partition, mu: Partition, *, cache=None) -> ViolationReport:
    """Does the squared midpoint class dominate the stable product of the pair?"""
    start = time.monotonic()
    mid = midpoint(lam, mu, "exact")  # NotIntegral propagates to the caller
    return _dominance_report("midpoint-reduced", start, lam, mu, (mid, mid), cache)


def check_midpoint_kronecker(lam: Partition, mu: Partition) -> ViolationReport:
    """Unstable analog at fixed S_n; expected to fail on known pairs."""
    start = time.monotonic()
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatch(f"sizes differ: {n} vs {sum(mu)}")
    mid = midpoint(lam, mu, "exact")
    bigger = tensor_decompose(mid, mid)
    smaller = tensor_decompose(lam, mu)
    lam_text, mu_text = format_partition(lam), format_partition(mu)
    return ViolationReport(
        subject=f"midpoint-kronecker lambda={lam_text} mu={mu_text}",
        pairs_scanned=1,
        violations=_compare_violations(lam_text, mu_text, bigger, smaller),
        elapsed_ms=_elapsed_ms(start),
    )


def check_sort_conjecture(lam: Partition, mu: Partition, *, cache=None) -> ViolationReport:
    """Does the sorted-split pair dominate the original pair in the stable ring?

    Stable analog of the sorted-split inequality; expected to fail on known
    pairs, from 4 boxes on: (1,1), (2) splits to (2,1), (1), whose product
    vanishes at target (1) by the size triangle inequality.
    """
    start = time.monotonic()
    return _dominance_report("sort", start, lam, mu, sort_split(lam, mu), cache)


def check_chain_conjecture(parts: Sequence[Partition], *, cache=None) -> ViolationReport:
    """n-fold version: interleaved splits of the merged parts vs the inputs.

    Stable analog of the interleave inequality; expected to fail on known
    inputs. With two inputs it is the sorted-split check, failing from 4 boxes
    on; with three the smallest failure is (1), (1,1), (2), at 5 boxes.

    Both sides are left-associated stable products; associativity is verified
    separately, so the bracketing only fixes the evaluation order. Violation
    records carry the input list and the split list as ';'-joined texts.
    """
    if not parts:
        raise ValueError("need at least one partition")
    start = time.monotonic()
    n = len(parts)
    merged = ()
    for p in parts:
        merged = union_parts(merged, p)
    splits = interleave_split(merged, n)

    def left_product(classes):
        acc = VirtualRep.single(classes[0])
        for p in classes[1:]:
            acc = stable_ring_multiply(acc, VirtualRep.single(p), cache=cache)
        return acc

    bigger = left_product(splits)
    smaller = left_product(list(parts))
    inputs_text = ";".join(format_partition(p) for p in parts)
    splits_text = ";".join(format_partition(p) for p in splits)
    return ViolationReport(
        subject=f"chain n={n} parts={inputs_text}",
        pairs_scanned=1,
        violations=_compare_violations(inputs_text, splits_text, bigger, smaller),
        elapsed_ms=_elapsed_ms(start),
    )


def check_saturation(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    k_max: int,
    mode: str = "reduced",
    *,
    cache=None,
) -> list[tuple[int, bool]]:
    """Nonvanishing of the coefficient along the scaled triples k=1..k_max."""
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
            value = reduced_kronecker(*scaled, cache=cache)
        out.append((k, value != 0))
    return out


class DimLogConcavity(NamedTuple):
    holds: bool
    lhs: int  # squared tableau count of the padded midpoint
    rhs: int  # product of the padded pair's tableau counts


def check_dim_log_concavity(lam: Partition, mu: Partition, d: int) -> DimLogConcavity:
    """Squared dimension of the padded midpoint vs the padded pair's product."""
    mid = midpoint(lam, mu, "exact")
    lhs = syt_count(pad(mid, d)) ** 2
    rhs = syt_count(pad(lam, d)) * syt_count(pad(mu, d))
    return DimLogConcavity(lhs >= rhs, lhs, rhs)


def check_schur_log_concavity(lam: Partition, mu: Partition) -> ViolationReport:
    """Midpoint-squared LR coefficients vs the pair's, over all same-size targets."""
    start = time.monotonic()
    mid = midpoint(lam, mu, "exact")
    total = sum(lam) + sum(mu)
    lam_text, mu_text = format_partition(lam), format_partition(mu)
    bigger = VirtualRep(lr_expand(mid, mid))
    smaller = VirtualRep(lr_expand(lam, mu))
    return ViolationReport(
        subject=f"schur-lr lambda={lam_text} mu={mu_text}",
        pairs_scanned=len(partitions_of(total)),
        violations=_compare_violations(lam_text, mu_text, bigger, smaller),
        elapsed_ms=_elapsed_ms(start),
    )


def check_murnaghan_littlewood(budget: int, *, cache=None) -> ViolationReport:
    """Reduced coefficients must equal LR coefficients at size-additive targets.

    Exhausts all triples with |nu| = |lam| + |mu| <= budget. This is an
    equality check, so a mismatch is recorded with the two values ordered
    smaller first to keep the report invariant.
    """
    start = time.monotonic()
    scanned = 0
    violations = []
    for lam, mu in _pairs_with_total(budget):
        total = sum(lam) + sum(mu)
        block = reduced_tensor_decompose(lam, mu, cache=cache)
        product = lr_expand(lam, mu)
        for nu in sorted(partitions_of(total)):
            reduced = block[nu]
            lr = product.get(nu, 0)
            scanned += 1
            if reduced != lr:
                lo, hi = sorted((reduced, lr))
                violations.append(
                    Violation(
                        format_partition(lam),
                        format_partition(mu),
                        format_partition(nu),
                        lo,
                        hi,
                    )
                )
    return ViolationReport(
        subject=f"murnaghan-littlewood budget={budget}",
        pairs_scanned=scanned,
        violations=violations,
        elapsed_ms=_elapsed_ms(start),
    )


# -- scans ------------------------------------------------------------------


def _pairs_with_total(max_boxes: int, equal_sizes: bool = False) -> Iterator[tuple]:
    """Unordered pairs with |lam| + |mu| <= max_boxes, canonical order."""
    for total in range(max_boxes + 1):
        for a in range(total + 1):
            if equal_sizes and 2 * a != total:
                continue
            for lam in sorted(partitions_of(a)):
                for mu in sorted(partitions_of(total - a)):
                    if canonical_key(lam) <= canonical_key(mu):
                        yield lam, mu


def _multisets_with_total(max_boxes: int, n: int) -> Iterator[tuple]:
    """Multisets of n partitions with total size <= max_boxes, canonical order."""
    pool = list(partitions_up_to(max_boxes))  # size-major ascending

    def rec(start: int, remaining: int, chosen: tuple):
        if len(chosen) == n:
            yield chosen
            return
        for i in range(start, len(pool)):
            p = pool[i]
            if sum(p) > remaining:
                break
            yield from rec(i, remaining - sum(p), chosen + (p,))

    yield from rec(0, max_boxes, ())


SCAN_CONJECTURES = ("midpoint_reduced", "midpoint_kronecker", "sort", "chain", "schur_lr")

_WORKER_CACHE = None


def _worker_init(cache) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = cache


def run_check(name: str, payload, *, cache=None) -> ViolationReport:
    """Run the per-pair check of one of SCAN_CONJECTURES on one payload.

    The payload is a (lam, mu) pair, or the list of parts for "chain".
    """
    if name == "midpoint_reduced":
        return check_midpoint_reduced(*payload, cache=cache)
    if name == "midpoint_kronecker":
        return check_midpoint_kronecker(*payload)
    if name == "sort":
        return check_sort_conjecture(*payload, cache=cache)
    if name == "chain":
        return check_chain_conjecture(payload, cache=cache)
    if name == "schur_lr":
        return check_schur_log_concavity(*payload)
    raise ValueError(f"unknown conjecture {name!r}")


def _scan_task(task, cache):
    """(violations, or None when skipped; cache records buffered for the parent)."""
    name, payload = task
    try:
        violations = run_check(name, payload, cache=cache).violations
    except (NotIntegral, SizeMismatch):
        violations = None
    records = cache.drain() if isinstance(cache, RecordingCache) else ()
    return violations, records


def _worker_task(task):
    """Pool entry point: runs the task against this worker's RecordingCache."""
    return _scan_task(task, _WORKER_CACHE)


def _merge(results, cache):
    """Fold task results in enumeration order, replaying buffered cache writes."""
    scanned = skipped = 0
    violations: list[Violation] = []
    for found, records in results:
        if found is None:
            skipped += 1
            continue
        scanned += 1
        violations.extend(found)
        for key, value in records:
            cache.put(*key, value)
    return scanned, skipped, violations


def scan(
    conjecture: str,
    max_boxes: int,
    jobs: int = 1,
    *,
    chain_n: int = 3,
    cache=None,
) -> ViolationReport:
    """Run one per-pair check over every admissible tuple within the box budget.

    Pairs failing a check's precondition (non-integral midpoints, unequal
    sizes where required) count as skipped. Up to min(jobs, tasks, CPUs)
    workers run in parallel, and none when that is 1; the merge is a fold in
    enumeration order, so reports do not depend on the schedule. Each worker
    buffers its cache writes and the parent performs the actual appends.
    """
    name = conjecture.replace("-", "_")
    if name not in SCAN_CONJECTURES:
        raise ValueError(f"unknown conjecture {conjecture!r}")
    start = time.monotonic()
    if name == "chain":
        payloads = list(_multisets_with_total(max_boxes, chain_n))
        subject = f"scan:{name}:max_boxes={max_boxes}:n={chain_n}"
    else:
        payloads = list(_pairs_with_total(max_boxes, equal_sizes=name == "midpoint_kronecker"))
        subject = f"scan:{name}:max_boxes={max_boxes}"
    tasks = ((name, payload) for payload in payloads)
    # A forked pool starts every worker up front, so never ask for more
    # workers than there are tasks or CPUs.
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        results = map(partial(_scan_task, cache=cache), tasks)
        scanned, skipped, violations = _merge(results, cache)
    else:
        worker_cache = None
        if cache is not None:
            worker_cache = RecordingCache(cache.path)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(worker_cache,)
        ) as pool:
            chunk = max(1, len(payloads) // (workers * 8))
            results = pool.map(_worker_task, tasks, chunksize=chunk)
            scanned, skipped, violations = _merge(results, cache)
    return ViolationReport(
        subject=subject,
        pairs_scanned=scanned,
        skipped=skipped,
        violations=violations,
        elapsed_ms=_elapsed_ms(start),
    )


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


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    passed: bool
    detail: str
    millis: int


def _golden(name, fn) -> GoldenCheck:
    start = time.monotonic()
    passed, detail = fn()
    return GoldenCheck(name, passed, detail, _elapsed_ms(start))


def run_golden_suite(stretch: bool = False, cache=None) -> list[GoldenCheck]:
    """Curated end-to-end checks of every engine against pinned exact values."""
    results = []

    def square_difference():
        diff = tensor_decompose((3, 3, 1, 1), (3, 3, 1, 1)) - tensor_decompose(
            (4, 4), (2, 2, 2, 2)
        )
        ok = diff.coeffs == EXPECTED_SQUARE_DIFFERENCE_S8
        return ok, f"{len(diff.coeffs)} signed terms" if ok else f"got {diff.coeffs}"

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
        report = check_midpoint_kronecker((6, 4), (2, 2, 2, 2, 2))
        return bool(report.violations), f"{len(report.violations)} violating targets"

    results.append(_golden("s10-midpoint-counterexample", s10_counterexample))

    def reduced_matches_lr():
        lam, mu, nu = GOLDEN_TRIPLE
        red = reduced_kronecker(lam, mu, nu, cache=cache)
        lr = lr_coefficient(lam, mu, nu)
        if red != GOLDEN_TRIPLE_VALUE or lr != GOLDEN_TRIPLE_VALUE:
            return False, f"golden triple gave reduced={red} lr={lr}"
        report = check_murnaghan_littlewood(5, cache=cache)
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
                            (j,) if j else (), (k,) if k else (), nu, cache=cache
                        ):
                            mismatches += 1
                        if j >= 1 and reduced_hook(j, k, nu) != reduced_kronecker(
                            (1,) * j, (1,) * k, nu, cache=cache
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
        engine = reduced_kronecker((1,) * 8, (1,) * 8, (3, 3), cache=cache)
        ok = closed == 0 and engine == 0
        return ok, f"closed={closed} engine={engine}"

    results.append(_golden("column-pair-vanishing-triple", vanishing_triple))

    if stretch:

        def scaled_triple():
            for m in (2, 3):
                value = reduced_kronecker(
                    (m,) * 8, (m,) * 8, (3 * m, 3 * m), cache=cache
                )
                if value:
                    return True, f"scale {m} gives {value}"
            return False, "no nonzero value at scales 2..3"

        results.append(_golden("column-pair-scaled-triple", scaled_triple))

    return results
