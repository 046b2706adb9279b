import hashlib
import json
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from kroncave import coefficients, conjectures
from kroncave.coefficients import clear_caches, kronecker, reduced_kronecker
from kroncave.conjectures import (
    EXPECTED_SQUARE_DIFFERENCE_S8,
    Violation,
    ViolationReport,
    check_dim_log_concavity,
    check_murnaghan_littlewood,
    check_payload,
    check_saturation,
    run_golden_suite,
    scan,
)
from kroncave.errors import KroncaveError, NotIntegral, SizeMismatch
from kroncave.partitions import (
    midpoint,
    murnaghan_inequalities,
    pad,
    partitions_of,
    partitions_up_to,
    syt_count,
)
from kroncave.store import ENGINE_VERSION, CoefficientCache, parse_partition_text

from oracles import jacobi_trudi_kronecker


def box_move_count(source, target):
    """Ways to turn source into target by removing one corner and adding one box.

    Together with chi(n-1,1) = chi(natural permutation action) - 1 this gives
    an implementation-independent value for multiplicities against (n-1,1).
    """
    results = 0
    for i in range(len(source)):
        if i + 1 < len(source) and source[i] == source[i + 1]:
            continue  # not a removable corner
        removed = tuple(x for x in source[:i] + (source[i] - 1,) + source[i + 1 :] if x)
        for j in range(len(removed) + 1):
            grown = list(removed)
            if j < len(removed):
                grown[j] += 1
            else:
                grown.append(1)
            if all(grown[t] >= grown[t + 1] for t in range(len(grown) - 1)):
                if tuple(x for x in grown if x) == target:
                    results += 1
    return results


class TestMidpointReduced:
    def test_identical_pair_passes(self):
        report = check_payload("midpoint_reduced", ((2, 1), (2, 1)))
        assert report.passed and report.pairs_scanned == 1

    def test_small_pair_passes(self):
        assert check_payload("midpoint_reduced", ((3, 1), (1, 1))).passed

    def test_not_integral_propagates(self):
        with pytest.raises(NotIntegral):
            check_payload("midpoint_reduced", ((2,), (1, 1)))

    def test_one_row_pairs_always_pass(self):
        for j in range(1, 6):
            for k in range(j, 11 - j):
                if (j + k) % 2:
                    continue
                assert check_payload("midpoint_reduced", ((j,), (k,))).passed, (j, k)


class TestMidpointKronecker:
    def test_identical_pair_passes(self):
        assert check_payload("midpoint_kronecker", ((3, 1), (3, 1))).passed

    def test_s8_pair_fails_at_sign_class(self):
        report = check_payload("midpoint_kronecker", ((4, 4), (2, 2, 2, 2)))
        found = {(v.nu, v.lhs, v.rhs) for v in report.violations}
        assert ("1,1,1,1,1,1,1,1", 0, 1) in found

    def test_s10_pair_fails(self):
        report = check_payload("midpoint_kronecker", ((6, 4), (2, 2, 2, 2, 2)))
        assert report.violations

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            check_payload("midpoint_kronecker", ((2,), (1,)))

    def test_violations_are_recheckable(self):
        report = check_payload("midpoint_kronecker", ((4, 4), (2, 2, 2, 2)))
        for v in report.violations:
            lam = parse_partition_text(v.lam)
            mu = parse_partition_text(v.mu)
            nu = parse_partition_text(v.nu)
            mid = (3, 3, 1, 1)
            assert kronecker(mid, mid, nu) == v.lhs
            assert kronecker(lam, mu, nu) == v.rhs
            assert v.lhs < v.rhs


class TestSortConjecture:
    def test_one_column_pair_passes(self):
        assert check_payload("sort", ((1, 1), (1, 1, 1, 1))).passed

    def test_already_split_pair_passes(self):
        report = check_payload("sort", ((2, 1), (2,)))
        assert report.passed

    def test_one_column_pairs_always_pass(self):
        for j in range(1, 6):
            for k in range(j, 11 - j):
                assert check_payload("sort", ((1,) * j, (1,) * k)).passed, (j, k)

    def test_minimal_failing_pair_is_genuine(self):
        """The sorted-split inequality fails already at four boxes.

        Splitting {1,1} and {2} gives the pair (2,1), (1). At target (1) the
        sorted side vanishes because the size triangle inequality fails, while
        the original side is 1, confirmed here by the box-move rule rather
        than by the engine under test.
        """
        assert not murnaghan_inequalities((2, 1), (1,), (1,))
        for d in range(5, 9):
            expected = box_move_count((d - 2, 1, 1), (d - 2, 2))
            assert expected == 1
            assert kronecker((d - 2, 1, 1), (d - 2, 2), (d - 1, 1)) == expected
        report = check_payload("sort", ((1, 1), (2,)))
        found = {(v.nu, v.lhs, v.rhs) for v in report.violations}
        assert ("1", 0, 1) in found


class TestChainConjecture:
    def test_single_input_is_equality(self):
        assert check_payload("chain", [(3, 1)]).passed

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            check_payload("chain", [])

    def test_one_column_triple_passes(self):
        assert check_payload("chain", [(1,), (1, 1), (1, 1, 1)]).passed

    def test_two_inputs_agree_with_sort(self):
        from kroncave.conjectures import _pairs_with_total

        for lam, mu in _pairs_with_total(6):
            chain = check_payload("chain", [lam, mu])
            sort = check_payload("sort", (lam, mu))
            assert chain.passed == sort.passed, (lam, mu)
            chain_viol = {(v.nu, v.lhs, v.rhs) for v in chain.violations}
            sort_viol = {(v.nu, v.lhs, v.rhs) for v in sort.violations}
            assert chain_viol == sort_viol, (lam, mu)


class TestSaturation:
    def test_kronecker_counterexample(self):
        got = check_saturation((1, 1), (1, 1), (1, 1), 2, "kronecker")
        assert got == [(1, False), (2, True)]

    def test_triangle_violating_triple_stays_zero(self):
        got = check_saturation((1,), (1,), (3,), 3, "reduced")
        assert got == [(1, False), (2, False), (3, False)]

    def test_kronecker_mode_needs_equal_sizes(self):
        with pytest.raises(SizeMismatch):
            check_saturation((2,), (1,), (1,), 1, "kronecker")

    def test_reduced_vanishing_probe(self):
        assert check_saturation((1,) * 8, (1,) * 8, (3, 3), 1, "reduced") == [(1, False)]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_saturation((1,), (1,), (1,), 1, "other")

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            check_saturation((1,), (1,), (1,), k_max)


class TestDimLogConcavity:
    def test_equal_pair_is_equality(self):
        result = check_dim_log_concavity((2, 1), (2, 1), 8)
        assert result.holds and result.lhs == result.rhs

    def test_examples(self):
        assert check_dim_log_concavity((3, 1), (1, 1), 8).holds
        assert check_dim_log_concavity((4,), (2, 2), 10).holds

    def test_values_match_direct_evaluation(self):
        result = check_dim_log_concavity((3, 1), (1, 1), 8)
        assert result.lhs == syt_count(pad((2, 1), 8)) ** 2
        assert result.rhs == syt_count(pad((3, 1), 8)) * syt_count(pad((1, 1), 8))

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            check_dim_log_concavity((2,), (1, 1), 6)


class TestSchurLogConcavity:
    def test_identical_pair(self):
        assert check_payload("schur_lr", ((2, 1), (2, 1))).passed

    def test_small_pair(self):
        assert check_payload("schur_lr", ((3, 1), (1, 1))).passed

    def test_golden_family_bound(self):
        from kroncave.coefficients import lr_coefficient

        lhs = lr_coefficient((5, 3, 2), (5, 3, 2), (8, 6, 4, 2))
        rhs = lr_coefficient((6, 4, 2), (4, 2, 2), (8, 6, 4, 2))
        assert rhs == 6 and lhs >= rhs
        assert check_payload("schur_lr", ((6, 4, 2), (4, 2, 2))).passed


class TestMurnaghanLittlewood:
    def test_small_budgets_pass(self):
        for budget in (4, 6):
            report = check_murnaghan_littlewood(budget)
            assert report.passed
            assert report.pairs_scanned > 0

    def test_golden_probe(self):
        lam, mu, nu = (6, 4, 2), (4, 2, 2), (8, 6, 4, 2)
        from kroncave.coefficients import lr_coefficient

        assert reduced_kronecker(lam, mu, nu) == lr_coefficient(lam, mu, nu) == 6


class TestScan:
    def test_midpoint_reduced_clean(self):
        report = scan("midpoint_reduced", 6)
        assert report.passed
        assert report.skipped > 0  # odd-sum pairs are skipped, not errors

    def test_hyphenated_name_accepted(self):
        assert scan("schur-lr", 4).passed

    def test_unknown_conjecture(self):
        with pytest.raises(ValueError):
            scan("nonsense", 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_chain_needs_at_least_one_part(self, n):
        with pytest.raises(ValueError, match="at least one partition"):
            scan("chain", 2, chain_n=n)

    @pytest.mark.parametrize("name, n", [("sort", 0), ("midpoint-kronecker", -5)])
    def test_every_scan_needs_at_least_one_part(self, name, n):
        """chain_n is checked on every row, not only on the row that reads it."""
        with pytest.raises(ValueError, match="at least one partition"):
            scan(name, 2, chain_n=n)

    @pytest.mark.parametrize("max_boxes, jobs", [(-1, 1), (2, 0), (2, -4)])
    def test_negative_budget_or_no_jobs_rejected(self, max_boxes, jobs):
        with pytest.raises(ValueError):
            scan("sort", max_boxes, jobs)

    def test_chain_payloads_put_more_empty_parts_first(self):
        from kroncave.conjectures import _multisets_with_total

        for max_boxes, n in ((0, 3), (2, 1), (3, 4), (4, 2)):
            pool = list(partitions_up_to(max_boxes))
            expected = [c for c in combinations_with_replacement(range(len(pool)), n)
                        if sum(sum(pool[i]) for i in c) <= max_boxes]
            got = list(_multisets_with_total(max_boxes, n))
            assert got == [tuple(pool[i] for i in c) for c in expected], (max_boxes, n)

    def test_midpoint_kronecker_finds_s8_pair(self):
        report = scan("midpoint_kronecker", 16)
        pairs = {(v.lam, v.mu) for v in report.violations}
        assert ("2,2,2,2", "4,4") in pairs

    def test_midpoint_kronecker_witnesses_agree_with_jacobi_trudi(self):
        """Both sides of every S_n violation up to 26 boxes, without a character.

        The oracle expands its second argument, and g is symmetric, so the
        shape with the fewest rows goes second."""

        def oracle(*shapes):
            longest, middle, shortest = sorted(shapes, key=len, reverse=True)
            return jacobi_trudi_kronecker(longest, shortest, middle)

        report = scan("midpoint_kronecker", 26)
        assert len(report.violations) == 19
        for v in report.violations:
            lam, mu, nu = map(parse_partition_text, (v.lam, v.mu, v.nu))
            mid = midpoint(lam, mu, "exact")
            assert (oracle(mid, mid, nu), oracle(lam, mu, nu)) == (v.lhs, v.rhs), v

    def test_deterministic_across_job_counts(self):
        sequential = scan("midpoint_reduced", 6, jobs=1)
        parallel = scan("midpoint_reduced", 6, jobs=2)
        assert sequential.canonical_json() == parallel.canonical_json()

    def test_parallel_matches_sequential_on_violating_scan(self):
        sequential = scan("sort", 5, jobs=1)
        parallel = scan("sort", 5, jobs=2)
        assert sequential.canonical_json() == parallel.canonical_json()
        assert not sequential.passed

    def test_pool_is_capped_by_tasks_and_cpus(self, monkeypatch):
        """Workers = min(jobs, tasks, CPUs), and no pool at all when that is 1.

        Tasks are the dispatched pairs: the parent never sends a pair without
        an exact midpoint to the pool."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        # scan imports the pool class when it starts one, so patch its home.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(conjectures, "_WORKER_CACHE", None)
        report = scan("midpoint_reduced", 4)
        expected = report.canonical_json()
        tasks = report.pairs_scanned
        assert (tasks, report.skipped) == (8, 13)
        cases = [(64, 1000, [tasks]), (3, 8, [3]), (64, 2, [2]), (1, 8, []), (None, 8, [])]
        for cpus, jobs, workers in cases:
            monkeypatch.setattr(conjectures.os, "cpu_count", lambda cpus=cpus: cpus)
            asked.clear()
            assert scan("midpoint_reduced", 4, jobs=jobs).canonical_json() == expected
            assert asked == workers, (cpus, jobs)

    def test_parent_alone_decides_skips(self, monkeypatch):
        """A pair the parity filter admits is checked; a NotIntegral is an error."""
        monkeypatch.setattr(conjectures, "_has_exact_midpoint", lambda lam, mu: True)
        with pytest.raises(NotIntegral):
            scan("midpoint-reduced", 4)

    def test_parity_filter_matches_midpoint(self):
        for lam, mu in conjectures._pairs_with_total(8):
            try:
                midpoint(lam, mu)
                exact = True
            except NotIntegral:
                exact = False
            assert conjectures._has_exact_midpoint(lam, mu) == exact, (lam, mu)

    def test_cache_lines_match_across_job_counts(self, tmp_path):
        lines = []
        for jobs in (1, 2):
            clear_caches()
            path = tmp_path / f"jobs{jobs}.jsonl"
            scan("midpoint_reduced", 6, jobs=jobs, cache=CoefficientCache(str(path)))
            lines.append(sorted(path.read_text(encoding="utf-8").splitlines()))
        assert lines[0] and lines[0] == lines[1]

    def test_cache_file_read_once_and_appended_once_per_product(self, tmp_path, monkeypatch):
        """A serial scan parses its cache once and appends each product it
        computes under one open of its own; a warm scan appends nothing."""
        from kroncave import store

        opens = []

        def counted(path, mode="r", *args, **kwargs):
            opens.append(mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(store, "open", counted, raising=False)
        path = tmp_path / "values.jsonl"
        clear_caches()
        report = scan("midpoint_reduced", 6, cache=CoefficientCache(str(path)))
        assert path.read_bytes().count(b"\n") == 19
        assert opens == ["r"] + ["a"] * 19
        opens.clear()
        clear_caches()
        warm = scan("midpoint_reduced", 6, cache=CoefficientCache(str(path)))
        assert warm.canonical_json() == report.canonical_json()
        assert opens == ["r"]

    def test_serial_scan_takes_no_cache_view(self, tmp_path, monkeypatch):
        """A serial scan passes its cache straight to each check: with
        CoefficientCache.view raising, it writes the same file as before."""
        clear_caches()
        expected = tmp_path / "expected.jsonl"
        report = scan("midpoint_reduced", 6, cache=CoefficientCache(str(expected)))

        def no_view(cache):
            raise AssertionError("a serial scan asked for a cache view")

        monkeypatch.setattr(CoefficientCache, "view", no_view)
        clear_caches()
        path = tmp_path / "values.jsonl"
        again = scan("midpoint_reduced", 6, cache=CoefficientCache(str(path)))
        assert again.canonical_json() == report.canonical_json()
        assert path.read_bytes() == expected.read_bytes()

    def test_raising_serial_scan_keeps_what_it_computed(self, tmp_path, monkeypatch):
        """A scan whose check raises keeps the records of the payloads before it,
        and those the raising check computed: the leading lines of a whole
        scan's file. The check of (2),(4) computes one new product, [2]*[4]."""
        clear_caches()
        whole = tmp_path / "whole.jsonl"
        scan("midpoint_reduced", 6, cache=CoefficientCache(str(whole)))
        original = conjectures.check_payload
        files = {}
        for computed in (False, True):

            def failing(name, payload, *, cache=None):
                if payload != ((2,), (4,)):
                    return original(name, payload, cache=cache)
                if computed:
                    original(name, payload, cache=cache)
                raise RuntimeError("planted failure")

            monkeypatch.setattr(conjectures, "check_payload", failing)
            clear_caches()
            files[computed] = tmp_path / f"computed-{computed}.jsonl"
            with pytest.raises(RuntimeError):
                scan("midpoint_reduced", 6, cache=CoefficientCache(str(files[computed])))
        before, kept = (files[flag].read_text().splitlines() for flag in (False, True))
        assert whole.read_text().splitlines()[: len(kept)] == kept
        assert len(kept) == len(before) + 1

    @pytest.mark.parametrize(
        "name, max_boxes, expand",
        [("midpoint_kronecker", 20, "tensor_decompose"), ("schur_lr", 12, "lr_expand")],
    )
    def test_each_midpoint_square_is_expanded_once(self, monkeypatch, name, max_boxes, expand):
        """A scan expands every pair's product once and each distinct midpoint
        square once, and reports the same bytes as pairs checked on fresh memos."""
        original = getattr(coefficients, expand)
        calls = Counter()

        def counted(lam, mu):
            calls[lam, mu] += 1
            return original(lam, mu)

        for module in (coefficients, conjectures):
            monkeypatch.setattr(module, expand, counted)
        payloads = list(conjectures._pairs_with_total(max_boxes, name == "midpoint_kronecker"))
        checked, violations = [], []
        for payload in payloads:
            clear_caches()
            try:
                violations += conjectures.check_payload(name, payload).violations
            except (NotIntegral, SizeMismatch):
                continue
            checked.append(payload)
        expected = ViolationReport(
            f"scan:{name}:max_boxes={max_boxes}",
            len(checked),
            len(payloads) - len(checked),
            violations,
        )
        clear_caches()
        calls.clear()
        report = scan(name.replace("_", "-"), max_boxes)
        assert report.canonical_json() == expected.canonical_json()
        squares = {midpoint(lam, mu) for lam, mu in checked}
        assert len(squares) < len(checked)
        assert calls == Counter(checked) + Counter((m, m) for m in squares)

    def test_report_json_shape(self):
        report = scan("sort", 4)
        data = json.loads(report.to_json())
        assert set(data) == {"subject", "pairsScanned", "skipped", "violations", "elapsedMillis"}
        for v in data["violations"]:
            assert set(v) == {"lambda", "mu", "nu", "lhs", "rhs"}
        canonical = json.loads(report.canonical_json())
        assert "elapsedMillis" not in canonical


class TestPinnedReports:
    """Canonical scan reports are pinned byte for byte; any refactor of the
    scan machinery must leave every one of them unchanged."""

    @pytest.mark.parametrize(
        "name, max_boxes, digest",
        [
            ("midpoint-reduced", 8, "6b6a67fa9ba71358063bbe76680d1f35df5878f3d3e4b2a59790f533df2dc0f9"),
            ("midpoint-kronecker", 16, "c0ad4734c4cae2e02da163fb8e9d33c38b79de2501189d57b7063a51f217ac53"),
            ("sort", 6, "d954b95c9cff7cd458fd604df6404fe099f869864134ea0cd49a281a3f5c01d7"),
            ("chain", 6, "a54bf8dd2b1f5d8331c0b2c835506a3a977499b0c1cb1a334b2d76dff4bd0f17"),
            ("schur-lr", 10, "c5a265ff169868c03224436500108af7310e90aa5afc72758ed7ed45af5b5ff6"),
        ],
    )
    def test_scan_report_bytes(self, name, max_boxes, digest):
        report = scan(name, max_boxes).canonical_json()
        assert hashlib.sha256(report.encode()).hexdigest() == digest


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedChecks:
    """The report of one check, on every payload a scan row enumerates, is
    pinned byte for byte, as are the errors of bad inputs and the cache file
    a cold scan writes; a refactor of the checks must leave each unchanged."""

    @pytest.mark.parametrize(
        "name, max_boxes, n, digest",
        [
            ("midpoint_reduced", 7, None, "ce29d1267e4a438243bf266352106a91663560eb1efcccdac8783298d6afa87d"),
            ("midpoint_kronecker", 14, None, "133660cd2d8782b3e804e8de2beb5f4a90764c4af0493a0904f551aeb913313d"),
            ("sort", 7, None, "d80733483c475701c328109442fda555ec1a0ae1b24be16763462116878e3c6e"),
            ("schur_lr", 7, None, "6f998355b28bf472a7bbf43a9969def0062268211abd204206bfa5a3b5a535b6"),
            ("chain", 7, 1, "4fb6177210391885463b9ec533773d1b8f9a344a1037bfe1ce620a9ecbdaadda"),
            ("chain", 7, 2, "6f9a7e3d3c1038c3d2921bd8b20d0a1a0ecb4da4701d469bfa7dbdc88203f9f4"),
            ("chain", 7, 3, "8159e14008b75927cc41bbf7ef2772fea12123113f21fab1db6cf46449d3d18b"),
        ],
    )
    def test_check_report_bytes(self, name, max_boxes, n, digest):
        """One line per payload: its canonical report, or the error it raises.

        This pins each check's subject, its violation texts (';'-joined for
        chain) and what it counts as scanned (targets for schur_lr)."""
        if n is None:
            payloads = conjectures._pairs_with_total(max_boxes, name == "midpoint_kronecker")
        else:
            payloads = conjectures._multisets_with_total(max_boxes, n)
        lines = []
        for payload in payloads:
            try:
                lines.append(conjectures.check_payload(name, payload).canonical_json())
            except KroncaveError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
        assert sha256("\n".join(lines).encode()) == digest

    @pytest.mark.parametrize(
        "check, payload, error, message",
        [
            ("midpoint_kronecker", ((2,), (1,)), SizeMismatch, "sizes differ: 2 vs 1"),
            ("midpoint_reduced", ((2,), (1, 1)), NotIntegral, "component 1 sums to odd value 3"),
            ("midpoint_kronecker", ((2,), (1, 1)), NotIntegral, "component 1 sums to odd value 3"),
            ("schur_lr", ((2,), (1, 1)), NotIntegral, "component 1 sums to odd value 3"),
            ("chain", (), ValueError, "need at least one partition"),
        ],
    )
    def test_bad_input_errors(self, check, payload, error, message):
        with pytest.raises(error) as info:
            check_payload(check, payload)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "name, max_boxes, line_count, digest",
        [
            ("midpoint_reduced", 6, 19, "f52ef594af6a5c25e24c23141011f551b142c8cc8a4faaa00b8aea8d618a2154"),
            ("sort", 5, 39, "59a64a4f04d1571f55366bf5992289d1f818ffa6b92f07ee44956f61587bea79"),
            ("chain", 5, 39, "120d9f373da828d25bea95bad17c9684a10c805ff7a38d3302e287e23492aae9"),
        ],
    )
    def test_cold_cache_file_bytes(self, tmp_path, name, max_boxes, line_count, digest):
        """A cold serial scan appends one record per product in evaluation
        order, so these bytes change if a check computes its two sides in
        another order."""
        clear_caches()
        path = tmp_path / "values.jsonl"
        scan(name, max_boxes, cache=CoefficientCache(str(path)))
        data = path.read_bytes()
        assert data.count(b"\n") == line_count
        assert sha256(data) == digest


class TestGoldenSuite:
    def test_all_checks_pass(self):
        results = run_golden_suite()
        failed = [c.name for c in results if not c.passed]
        assert not failed, failed

    def test_cache_is_neither_read_nor_written(self, tmp_path):
        """A file holding 5 for the golden triple, whose value is 6, decides no
        check, and the suite appends nothing to it."""
        path = tmp_path / "golden.jsonl"
        path.write_text(json.dumps(
            {"kind": "redkron", "lambda": "4,2,2", "mu": "6,4,2", "nu": "8,6,4,2",
             "value": "5", "engineVersion": ENGINE_VERSION}
        ) + "\n")
        before = path.read_bytes()
        clear_caches()
        results = run_golden_suite(cache=CoefficientCache(str(path)))
        assert [c.name for c in results if not c.passed] == []
        assert path.read_bytes() == before

    def test_idempotent_and_deterministic(self):
        first = [(c.name, c.passed, c.detail) for c in run_golden_suite()]
        second = [(c.name, c.passed, c.detail) for c in run_golden_suite()]
        assert first == second

    def test_expected_constant_is_balanced(self):
        # 21 signed terms over the 22 partitions of 8, one coefficient zero
        assert len(EXPECTED_SQUARE_DIFFERENCE_S8) == 21
        assert set(EXPECTED_SQUARE_DIFFERENCE_S8) | {(2, 1, 1, 1, 1, 1, 1)} == set(
            partitions_of(8)
        )
