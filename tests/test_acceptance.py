"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. All comparisons are exact integer comparisons; the stated
wall-clock budgets are asserted too.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from kroncave.characters import character, class_sizes
from kroncave.closed_forms import reach_count, reduced_hook, reduced_two_row
from kroncave.coefficients import (
    VirtualRep,
    clear_caches,
    kronecker,
    kronecker_sequence,
    lr_coefficient,
    reduced_kronecker,
    reduced_tensor_decompose,
    stable_ring_multiply,
    tensor_decompose,
)
from kroncave.conjectures import (
    EXPECTED_SQUARE_DIFFERENCE_S8,
    check_dim_log_concavity,
    check_murnaghan_littlewood,
    check_payload,
    scan,
)
from kroncave.errors import NotIntegral
from kroncave.partitions import (
    conjugate,
    midpoint,
    pad,
    part,
    partitions_of,
    partitions_up_to,
    sort_split,
)
from kroncave.store import CoefficientCache, format_partition

from oracles import gamma_reachable_points


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(
            f"ACCEPTANCE {number} {name}: FAIL ({time.monotonic() - start:.1f}s)",
            flush=True,
        )
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)", flush=True)
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def one_row(j):
    return (j,) if j else ()


def test_criterion_1_virtual_square_difference():
    with criterion(1, "virtual square difference in S_8", 5):
        diff = tensor_decompose((3, 3, 1, 1), (3, 3, 1, 1)) - tensor_decompose(
            (4, 4), (2, 2, 2, 2)
        )
        assert diff.coeffs == EXPECTED_SQUARE_DIFFERENCE_S8
        assert diff[(2, 1, 1, 1, 1, 1, 1)] == 0
        assert diff[(6, 2)] == 3
        assert diff[(1, 1, 1, 1, 1, 1, 1, 1)] == -1
        assert diff[(4, 2, 1, 1)] == 6
        assert diff[(3, 3, 1, 1)] == 4


def test_criterion_2_parity_family():
    with criterion(2, "square-shape parity family N=1..6", 30):
        for n in range(1, 7):
            expected = 1 if n % 2 == 0 else 0
            assert kronecker((n, n), (n, n), (n, n)) == expected


def test_criterion_3_s10_counterexample():
    with criterion(3, "midpoint failure in S_10", 60):
        report = check_payload("midpoint_kronecker", ((6, 4), (2, 2, 2, 2, 2)))
        assert report.violations


def test_criterion_4_murnaghan_littlewood():
    with criterion(4, "reduced equals LR at additive sizes, budget 8", 600):
        assert reduced_kronecker(*((6, 4, 2), (4, 2, 2), (8, 6, 4, 2))) == 6
        report = check_murnaghan_littlewood(8)
        assert report.passed
        assert report.pairs_scanned > 0


def test_criterion_5_closed_form_oracle_equivalence(tmp_path):
    cache_path = str(tmp_path / "closed-form-cache.jsonl")

    def compare_all(value):
        """Closed forms against value(lam, mu, nu) at every nu of size <= j + k."""
        mismatches = []
        for j in range(7):
            for k in range(j, 7):
                for size in range(j + k + 1):
                    for nu in partitions_of(size):
                        if reduced_two_row(j, k, nu) != value(one_row(j), one_row(k), nu):
                            mismatches.append(("row", j, k, nu))
                        if j >= 1 and reduced_hook(j, k, nu) != value((1,) * j, (1,) * k, nu):
                            mismatches.append(("hook", j, k, nu))
        return mismatches

    pairs = {(one_row(j), one_row(k)) for j in range(7) for k in range(j, 7)}
    pairs |= {((1,) * j, (1,) * k) for j in range(1, 7) for k in range(j, 7)}
    with criterion(5, "closed forms match the character engine, cold", 900):
        clear_caches()
        assert compare_all(reduced_kronecker) == []
        cache = CoefficientCache(cache_path)
        for pair in sorted(pairs):
            reduced_tensor_decompose(*pair, cache=cache)
    with criterion(5, "closed forms match the products read back from the file, warm", 60):
        clear_caches()
        stored = CoefficientCache(cache_path)
        assert len(stored) == len(pairs)
        assert compare_all(lambda lam, mu, nu: stored.get(lam, mu).get(nu, 0)) == []


def test_criterion_6_interval_inequalities():
    with criterion(6, "interval inequalities via closed forms, totals <= 10", 300):
        for t in range(2, 11):
            for j in range(1, t // 2 + 1):
                k = t - j
                for i in range(j):
                    l = t - i
                    for size in range(t + 1):
                        for nu in partitions_of(size):
                            assert reduced_two_row(j, k, nu) >= reduced_two_row(i, l, nu)
                            if i >= 1:
                                assert reduced_hook(j, k, nu) >= reduced_hook(i, l, nu)


def test_criterion_7_midpoint_reduced_scan():
    with criterion(7, "midpoint scan at 8 boxes", 1800):
        report = scan("midpoint_reduced", 8)
        assert report.passed
        assert report.pairs_scanned > 0


def padded_product(factors, n):
    """pad(f1, n) (x) pad(f2, n) (x) ... expanded in S_n, each target nu[n] read as nu."""
    expansion = {pad(factors[0], n): 1}
    for p in factors[1:]:
        step = {}
        for target, c in expansion.items():
            for nu, m in tensor_decompose(target, pad(p, n)).items():
                step[nu] = step.get(nu, 0) + c * m
        expansion = step
    return {nu[1:]: c for nu, c in expansion.items() if c}


def stable_product_oracle(factors):
    """Stable product of single classes, read off one padded S_N product.

    N = sum of |p| + p_1 over the factors: the Briand-Orellana-Rosas bound
    |lam| + |mu| + lam_1 + mu_1 (J. Algebra 2011), applied factor by factor.
    The expansion at N + 1 must read back the same. No reduced coefficient
    or cache is involved.
    """
    n = sum(sum(p) + part(p, 1) for p in factors)
    product = padded_product(factors, n)
    assert padded_product(factors, n + 1) == product, factors
    return product


def oracle_violations(lam_text, mu_text, bigger_factors, smaller_factors):
    """(lam, mu, nu, lhs, rhs) wherever the bigger product has the smaller coefficient."""
    bigger = stable_product_oracle(bigger_factors)
    smaller = stable_product_oracle(smaller_factors)
    return {
        (lam_text, mu_text, format_partition(nu), bigger.get(nu, 0), smaller.get(nu, 0))
        for nu in bigger.keys() | smaller.keys()
        if bigger.get(nu, 0) < smaller.get(nu, 0)
    }


def split_parts(factors, n):
    """Merge all parts largest first, then deal them round-robin into n partitions."""
    merged = sorted(itertools.chain(*factors), reverse=True)
    return [tuple(merged[i::n]) for i in range(n)]


def violation_set(report):
    found = {(v.lam, v.mu, v.nu, v.lhs, v.rhs) for v in report.violations}
    assert len(found) == len(report.violations), "a violation is reported twice"
    return found


def test_criterion_7_sort_and_chain_scans():
    """Both scans report exactly the violations of an independent padded oracle.

    The stable product does not satisfy the sorted-split or the interleave
    inequality, so zero violations is not the expectation. The smallest
    failure is the pair (1,1), (2): its sorted split is (2,1), (1), and at
    target (1) the size triangle inequality |(2,1)| <= |(1)| + |(1)| fails,
    so the sorted side is 0 while the original side is 1 (re-derived by the
    box-move rule in test_conjectures.TestSortConjecture). Failures also occur
    inside the size triangle, e.g. (2,1), (3) at (2,1,1) gives 3 < 4, so the
    refutation is not a size effect alone.

    The oracle expands the padded product of the factors in S_N with
    tensor_decompose at a size N past the stabilization bound and reads the
    stable coefficients back; the scans compute the same inequality through
    reduced_tensor_decompose and reduced_kronecker.
    """
    with criterion(7, "sorted-split and interleave scans at 6 boxes", 1800):
        sort_report = scan("sort", 6)
        chain_report = scan("chain", 6, chain_n=3)

        shapes = list(partitions_up_to(6))
        pairs = [
            pair
            for pair in itertools.combinations_with_replacement(shapes, 2)
            if sum(map(sum, pair)) <= 6
        ]
        expected_sort = set()
        for lam, mu in pairs:
            expected_sort |= oracle_violations(
                format_partition(lam), format_partition(mu), split_parts((lam, mu), 2), (lam, mu)
            )
        triples = [
            parts
            for parts in itertools.combinations_with_replacement(shapes, 3)
            if sum(map(sum, parts)) <= 6
        ]
        expected_chain = set()
        for parts in triples:
            expected_chain |= oracle_violations(
                ";".join(map(format_partition, parts)),
                ";".join(map(format_partition, split_parts(parts, 3))),
                split_parts(parts, 3),
                parts,
            )

        assert sort_report.pairs_scanned == len(pairs)
        assert chain_report.pairs_scanned == len(triples)
        assert expected_sort and expected_chain
        assert ("1,1", "2", "1", 0, 1) in expected_sort
        assert ("2,1", "3", "2,1,1", 3, 4) in expected_sort

        # not a size effect alone: some nu satisfies the sorted pair's triangle
        shape_of = {format_partition(p): p for p in shapes}

        def inside_size_triangle(violation):
            lam, mu, nu = (shape_of[text] for text in violation[:3])
            a, b = map(sum, split_parts((lam, mu), 2))
            c = sum(nu)
            return a <= b + c and b <= a + c and c <= a + b

        assert any(inside_size_triangle(v) for v in expected_sort)
        assert violation_set(sort_report) == expected_sort
        assert violation_set(chain_report) == expected_chain


def test_criterion_8_dimension_log_concavity():
    with criterion(8, "padded dimension log-concavity, sizes <= 8", 60):
        shapes = list(partitions_up_to(8))
        checked = 0
        for lam in shapes:
            for mu in shapes:
                try:
                    midpoint(lam, mu)
                except NotIntegral:
                    continue
                base = max(sum(lam) + part(lam, 1), sum(mu) + part(mu, 1))
                for t in range(6):
                    result = check_dim_log_concavity(lam, mu, base + t)
                    assert result.holds, (lam, mu, base + t)
                    checked += 1
        assert checked > 0


def test_criterion_9_schur_log_concavity_scan():
    with criterion(9, "LR midpoint scan at 8 boxes", 300):
        report = scan("schur_lr", 8)
        assert report.passed
        assert report.pairs_scanned > 0


def test_criterion_10_property_suites():
    with criterion(10, "exact property suites", 600):
        # character row orthogonality, n <= 8
        for n in range(9):
            classes = tuple(zip(partitions_of(n), class_sizes(n)))
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum(
                        size * character(lam, rho) * character(mu, rho)
                        for rho, size in classes
                    )
                    assert total == (math.factorial(n) if lam == mu else 0)

        # full symmetry of the three-argument coefficient, n <= 6
        for n in range(7):
            shapes = partitions_of(n)
            table = {}
            for lam in shapes:
                for mu in shapes:
                    rep = tensor_decompose(lam, mu)
                    for nu in shapes:
                        table[(lam, mu, nu)] = rep[nu]
            for key, value in table.items():
                for perm in itertools.permutations(key):
                    assert table[perm] == value

        # padded sequences weakly increase on sampled stabilization traces
        small = list(partitions_up_to(4))
        for lam, mu, nu in itertools.islice(
            itertools.product(small, small, small), 0, None, 37
        ):
            d0 = max(
                sum(lam) + part(lam, 1),
                sum(mu) + part(mu, 1),
                sum(nu) + part(nu, 1),
                sum(lam) + sum(mu) + sum(nu),
            )
            values = kronecker_sequence(lam, mu, nu, range(d0, d0 + 4))
            assert values == sorted(values), (lam, mu, nu, values)
            # the stable value is the maximum of the weakly increasing sequence
            assert reduced_kronecker(lam, mu, nu) >= values[0]

        # stable ring associativity and commutativity, sizes <= 3
        singles = [p for s in range(4) for p in partitions_of(s)]
        for a, b in itertools.combinations_with_replacement(singles, 2):
            A, B = VirtualRep.single(a), VirtualRep.single(b)
            assert stable_ring_multiply(A, B) == stable_ring_multiply(B, A)
        for a, b, c in itertools.combinations_with_replacement(singles, 3):
            A, B, C = (VirtualRep.single(p) for p in (a, b, c))
            left = stable_ring_multiply(stable_ring_multiply(A, B), C)
            right = stable_ring_multiply(A, stable_ring_multiply(B, C))
            assert left == right, (a, b, c)

        # rectangle reach closed form equals step enumeration, parameters <= 8
        span = range(9)
        for x in span:
            for y in span:
                for a in span:
                    pts = [
                        (u, v)
                        for (u, v) in gamma_reachable_points(x, y, a)
                        if u >= 0 and v >= 0
                    ]
                    for b in span:
                        for c in span:
                            for d in span:
                                expected = sum(
                                    1
                                    for (u, v) in pts
                                    if a <= u <= a + b and c <= v <= c + d
                                )
                                assert (
                                    reach_count(a, b, c, d, x, y) == expected
                                ), (a, b, c, d, x, y)

        # rounding midpoints conjugate onto the sorted splits, sizes <= 8
        shapes8 = list(partitions_up_to(8))
        for lam in shapes8:
            for mu in shapes8:
                s1, s2 = sort_split(conjugate(lam), conjugate(mu))
                assert conjugate(midpoint(lam, mu, "ceil")) == s1
                assert conjugate(midpoint(lam, mu, "floor")) == s2


def test_criterion_11_vanishing_column_pair_probe():
    with criterion(11, "column pair vanishing probe", 120):
        assert reduced_hook(8, 8, (3, 3)) == 0
        assert reduced_kronecker((1,) * 8, (1,) * 8, (3, 3)) == 0
        # the scaled nonzero side runs only behind the CLI --stretch flag
