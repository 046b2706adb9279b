import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import kroncave
from kroncave import coefficients
from kroncave.characters import DEFAULT_TABLE, CharacterTable, character_value, dimension
from kroncave.closed_forms import reduced_hook, reduced_two_row
from kroncave.coefficients import (
    clear_caches,
    kronecker,
    kronecker_sequence,
    lr_coefficient,
    lr_expand,
    reduced_kronecker,
    reduced_tensor_decompose,
    stabilization_start,
    stable_ring_compare,
    stable_ring_multiply,
    tensor_decompose,
)
from kroncave.conjectures import check_payload, scan
from kroncave.errors import InvariantViolation, PadTooSmall, SizeMismatch
from kroncave.partitions import (
    conjugate,
    dvir_inequalities,
    interleave_split,
    midpoint,
    murnaghan_inequalities,
    pad,
    part,
    partitions_of,
    partitions_up_to,
    syt_count,
    union_parts,
)
from kroncave.store import CoefficientCache

from oracles import (
    beta_list_character,
    jacobi_trudi_kronecker,
    littlewood_reduced_kronecker,
    lr_count_bruteforce,
    lr_filling_count,
)


class TestKronecker:
    def test_smallest_saturation_counterexample(self):
        assert kronecker((1, 1), (1, 1), (1, 1)) == 0
        assert kronecker((2, 2), (2, 2), (2, 2)) == 1

    def test_trivial_factor_gives_delta(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for nu in partitions_of(n):
                    assert kronecker(lam, (n,), nu) == (1 if lam == nu else 0)

    def test_sign_factor_conjugates(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for nu in partitions_of(n):
                    expected = 1 if nu == conjugate(lam) else 0
                    assert kronecker(lam, (1,) * n, nu) == expected

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kronecker((2,), (1, 1), (1,))

    def test_full_symmetry_small(self):
        for n in range(6):
            shapes = partitions_of(n)
            values = {}
            for lam in shapes:
                for mu in shapes:
                    rep = tensor_decompose(lam, mu)
                    for nu in shapes:
                        values[(lam, mu, nu)] = rep.get(nu, 0)
            for key, v in values.items():
                for perm in itertools.permutations(key):
                    assert values[perm] == v


class TestTensorDecompose:
    def test_sign_squared_is_trivial(self):
        rep = tensor_decompose((1, 1), (1, 1))
        assert rep == {(2,): 1}

    def test_trivial_times_sign(self):
        rep = tensor_decompose((2,), (1, 1))
        assert rep == {(1, 1): 1}

    def test_dimension_accounting(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    rep = tensor_decompose(lam, mu)
                    total = sum(c * dimension(nu) for nu, c in rep.items())
                    assert total == dimension(lam) * dimension(mu)

    def test_matches_kronecker(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    rep = tensor_decompose(lam, mu)
                    for nu in partitions_of(n):
                        assert rep.get(nu, 0) == kronecker(lam, mu, nu), (lam, mu, nu)
                    total = sum(g * syt_count(nu) for nu, g in rep.items())
                    assert total == syt_count(lam) * syt_count(mu), (lam, mu)

    @staticmethod
    def _check_pair(lam, mu):
        rep = tensor_decompose(lam, mu)
        for nu in partitions_of(sum(lam)):
            assert rep.get(nu, 0) == kronecker(lam, mu, nu), (lam, mu, nu)
        total = sum(g * syt_count(nu) for nu, g in rep.items())
        assert total == syt_count(lam) * syt_count(mu), (lam, mu)

    def test_matches_kronecker_at_9_and_10(self):
        for n in (9, 10):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    self._check_pair(lam, mu)

    def test_widest_slot_pairs_at_13(self):
        """The largest sums at the largest size the fixed-size scans reach."""
        widest = max(partitions_of(13), key=syt_count)
        self._check_pair(widest, widest)
        self._check_pair((13,), (1,) * 13)


def _cells_shared(lam, mu):
    return sum(min(a, b) for a, b in zip(lam, mu))


class TestDvirBounds:
    """kronecker skips the class sum where dvir_inequalities fails; the
    packed tensor_decompose never consults the bounds, so it is the witness."""

    def test_bounds_against_packed_products(self):
        clear_caches()
        for n in range(10):
            shapes = partitions_of(n)
            for lam in shapes:
                for mu in shapes:
                    rep = tensor_decompose(lam, mu)
                    allowed = [nu for nu in shapes if dvir_inequalities(lam, mu, nu)]
                    for nu in shapes:
                        assert kronecker(lam, mu, nu) == rep.get(nu, 0), (lam, mu, nu)
                        if nu not in allowed:
                            assert rep.get(nu, 0) == 0, (lam, mu, nu)
                    # Dvir's maximum is attained, and the bounds admit nothing past it
                    longest = _cells_shared(lam, conjugate(mu))
                    widest = _cells_shared(lam, mu)
                    assert max(len(nu) for nu in rep) == longest, (lam, mu)
                    assert max(len(nu) for nu in allowed) == longest, (lam, mu)
                    assert max(part(nu, 1) for nu in rep) == widest, (lam, mu)
                    assert max(part(nu, 1) for nu in allowed) == widest, (lam, mu)

    def test_bounds_have_the_symmetries_of_g(self):
        """Each of the six bounds is the nu bound moved by a symmetry of g, so
        the test is invariant under permuting the triple and under
        (lam, mu, nu) -> (lam', mu, nu')."""
        for n in range(8):
            shapes = partitions_of(n)
            for triple in itertools.product(shapes, repeat=3):
                holds = dvir_inequalities(*triple)
                for lam, mu, nu in itertools.permutations(triple):
                    assert dvir_inequalities(lam, mu, nu) == holds, triple
                    assert dvir_inequalities(conjugate(lam), mu, conjugate(nu)) == holds, triple

    def test_pruned_triple_looks_up_no_character(self):
        clear_caches()
        assert kronecker((5,), (5,), (1,) * 5) == 0
        assert len(DEFAULT_TABLE) == 0
        assert coefficients._ROWS == {}
        assert coefficients._PAIR_WEIGHTS == {}


class TestJacobiTrudiOracle:
    """Kronecker coefficients from LR coefficients alone, with no character."""

    def test_matches_tensor_decompose(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    rep = tensor_decompose(lam, mu)
                    for nu in partitions_of(n):
                        expected = rep.get(nu, 0)
                        assert jacobi_trudi_kronecker(lam, mu, nu) == expected, (lam, mu, nu)

    def test_matches_kronecker_on_seeded_triples(self):
        rng = random.Random(7)
        for _ in range(40):
            shapes = partitions_of(rng.choice((7, 8)))
            lam, mu, nu = (rng.choice(shapes) for _ in range(3))
            assert jacobi_trudi_kronecker(lam, mu, nu) == kronecker(lam, mu, nu), (lam, mu, nu)


def _triples(max_n):
    for n in range(max_n + 1):
        shapes = partitions_of(n)
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    yield lam, mu, nu


def _shapes_of(n, largest=None):
    """Partitions of n, generated here so the oracle shares nothing with kroncave."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _shapes_of(n - first, first):
            yield (first,) + rest


def beta_list_kronecker(lam, mu, nu):
    """Class sum over n! on beta-list characters, with a memo of its own."""
    n = sum(lam)
    memo = {}
    total = 0
    for rho in _shapes_of(n):
        z = math.prod(k**m * math.factorial(m) for k, m in Counter(rho).items())
        chars = [beta_list_character(shape, rho, memo) for shape in (lam, mu, nu)]
        total += math.factorial(n) // z * math.prod(chars)
    value, rest = divmod(total, math.factorial(n))
    assert rest == 0 and value >= 0, (lam, mu, nu, total)
    return value


def _character_requests(monkeypatch, max_boxes):
    """(shape, class) -> CharacterTable.character calls in a cold midpoint scan."""
    clear_caches()
    requests = Counter()
    original = CharacterTable.character

    def counted(table, lam, rho):
        requests[tuple(lam), tuple(rho)] += 1
        return original(table, lam, rho)

    with monkeypatch.context() as patch:
        patch.setattr(CharacterTable, "character", counted)
        assert scan("midpoint-reduced", max_boxes).passed
    return requests


class TestRowStore:
    def test_fill_order_does_not_change_kronecker(self):
        triples = list(_triples(7))
        fresh = {}
        for triple in triples:
            clear_caches()
            fresh[triple] = kronecker(*triple)

        # Narrow supports first, so wider sums meet rows with holes on them.
        width = {t: len(coefficients._pair_weights(t[0], t[1])[0]) for t in triples}
        by_support = sorted(triples, key=lambda t: (width[t], t))
        clear_caches()
        partly_filled, holes_met = {}, 0
        for lam, mu, nu in by_support:
            support = coefficients._pair_weights(lam, mu)[0]
            row = coefficients._ROWS.get(nu)
            holes_met += type(row) is list and any(row[i] is None for i in support)
            partly_filled[lam, mu, nu] = kronecker(lam, mu, nu)
        assert holes_met > 0

        clear_caches()
        for n in range(8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    tensor_decompose(lam, mu)
        assert all(type(row) is tuple for row in coefficients._ROWS.values())
        completed = {triple: kronecker(*triple) for triple in triples}

        assert fresh == partly_filled == completed

    def test_fill_order_does_not_change_tensor_decompose(self):
        pairs = [(lam, mu) for n in range(9) for lam in partitions_of(n) for mu in partitions_of(n)]
        fresh = {}
        for lam, mu in pairs:
            clear_caches()
            fresh[lam, mu] = tensor_decompose(lam, mu)

        # Sums on one narrow support first leave rows with holes, then whole products.
        clear_caches()
        for n in range(9):
            top = max(partitions_of(n), key=syt_count)
            for nu in partitions_of(n):
                kronecker(top, top, nu)
        rows = coefficients._ROWS.values()
        assert sum(type(row) is list and None in row for row in rows) > 0
        assert {pair: tensor_decompose(*pair) for pair in pairs} == fresh

    def test_padded_scan_triples_match_beta_list_sum(self, monkeypatch):
        clear_caches()
        seen = set()
        original = coefficients.kronecker

        def recording(lam, mu, nu):
            seen.add((lam, mu, nu))
            return original(lam, mu, nu)

        with monkeypatch.context() as patch:
            patch.setattr(coefficients, "kronecker", recording)
            scan("midpoint-reduced", 8)
        padded = sorted(seen, key=lambda t: (sum(t[0]), t))
        picked = padded[:: max(1, len(padded) // 30)] + padded[-3:]
        assert 30 <= len(picked) <= 40 and max(sum(t[0]) for t in picked) >= 13
        clear_caches()
        for triple in picked:
            assert kronecker(*triple) == beta_list_kronecker(*triple), triple

    def test_scan_asks_each_character_once(self, monkeypatch):
        requests = _character_requests(monkeypatch, 6)
        assert [key for key, calls in requests.items() if calls > 1] == []
        # only the characters the sums need, with their recursion: no whole rows
        # of nu, none for the triples that dvir_inequalities rules out, and
        # none for the top degrees, which come from lr_expand
        assert len(DEFAULT_TABLE) == 2666

    def test_count_guard_sees_repeated_rows(self, monkeypatch):
        """The guard above fails when each sum evaluates nu on every class again."""

        def every_class(support, weights, nu, n):
            row = [DEFAULT_TABLE.character(nu, rho) for rho in partitions_of(n)]
            total = sum(row[i] * w for i, w in zip(support, weights))
            return coefficients._multiplicity(total, nu, n)

        monkeypatch.setattr(coefficients, "_class_sum", every_class)
        requests = _character_requests(monkeypatch, 6)
        assert max(requests.values()) > 1


class TestLittlewoodRichardson:
    def test_golden_family_value(self):
        assert lr_coefficient((6, 4, 2), (4, 2, 2), (8, 6, 4, 2)) == 6

    def test_pieri(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1

    def test_size_mismatch_is_zero(self):
        assert lr_coefficient((2,), (2,), (3,)) == 0

    def test_containment_failure_is_zero(self):
        assert lr_coefficient((3,), (1,), (2, 2)) == 0

    def test_symmetric_in_first_two(self):
        for nu in partitions_up_to(6):
            for lam in partitions_up_to(6):
                for mu in partitions_up_to(6):
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)

    def test_bruteforce_agreement(self):
        # exhaustive where the raw filling count stays reasonable; the
        # size-additive acceptance criterion pins the larger cases through the
        # character engine instead
        for total in range(9):
            for nu in partitions_of(total):
                for lam_size in range(total + 1):
                    for lam in partitions_of(lam_size):
                        for mu in partitions_of(total - lam_size):
                            if total > 6 and lr_filling_count(lam, mu, nu) > 5000:
                                continue
                            assert lr_coefficient(lam, mu, nu) == lr_count_bruteforce(
                                lam, mu, nu
                            ), (lam, mu, nu)


class TestLrExpand:
    @staticmethod
    def pairs(max_total):
        for total in range(max_total + 1):
            for size in range(total + 1):
                for lam in partitions_of(size):
                    for mu in partitions_of(total - size):
                        yield lam, mu, total

    def test_matches_lr_coefficient(self):
        for lam, mu, total in self.pairs(9):
            expected = {nu: lr_coefficient(lam, mu, nu) for nu in partitions_of(total)}
            expected = {nu: c for nu, c in expected.items() if c}
            assert lr_expand(lam, mu) == expected, (lam, mu)

    def test_matches_bruteforce(self):
        for lam, mu, total in self.pairs(6):
            expected = {nu: lr_count_bruteforce(lam, mu, nu) for nu in partitions_of(total)}
            expected = {nu: c for nu, c in expected.items() if c}
            assert lr_expand(lam, mu) == expected, (lam, mu)

    def test_symmetric(self):
        for lam, mu, _ in self.pairs(10):
            assert lr_expand(lam, mu) == lr_expand(mu, lam), (lam, mu)

    def test_conjugate_product_is_the_conjugate(self):
        """c^nu_{lam mu} = c^{nu'}_{lam' mu'}: the product of the conjugates,
        with its keys conjugated, is the product."""
        for lam, mu, _ in self.pairs(10):
            flipped = lr_expand(conjugate(lam), conjugate(mu))
            assert {conjugate(nu): c for nu, c in flipped.items()} == lr_expand(lam, mu), (lam, mu)

    def test_walk_labels_with_fewest_rows(self, monkeypatch):
        """Each product is one walk, which adds one label per row of its second
        factor; of lam, mu and their conjugates it labels with the fewest rows."""
        original = coefficients._lr_walk
        labels = []

        def counted(lam, mu):
            labels.append(len(mu))
            return original(lam, mu)

        monkeypatch.setattr(coefficients, "_lr_walk", counted)
        for lam, mu, _ in self.pairs(9):
            labels.clear()
            lr_expand(lam, mu)
            assert labels == [min(len(lam), len(mu), part(lam, 1), part(mu, 1))], (lam, mu)

    def test_edge_cases(self):
        assert lr_expand((), ()) == {(): 1}
        assert lr_expand((3, 1), ()) == {(3, 1): 1}
        assert lr_expand((), (2, 2)) == {(2, 2): 1}
        assert lr_expand((6, 4, 2), (4, 2, 2))[(8, 6, 4, 2)] == 6

    def test_dimension_identity(self):
        rng = random.Random(16)
        for _ in range(50):
            a = rng.randint(0, 16)
            b = rng.randint(0, 16 - a)
            lam = rng.choice(partitions_of(a))
            mu = rng.choice(partitions_of(b))
            total = sum(c * syt_count(nu) for nu, c in lr_expand(lam, mu).items())
            assert total == math.comb(a + b, a) * syt_count(lam) * syt_count(mu), (lam, mu)


class TestKroneckerSequence:
    def test_standard_class_trace(self):
        values = kronecker_sequence((1,), (1,), (1,), range(2, 7))
        assert values == sorted(values)
        assert values[-1] == 1
        assert values[0] == 0  # the d=2 term is the saturation counterexample

    def test_monotone_for_columns(self):
        values = kronecker_sequence((1, 1), (1, 1), (1, 1), [4, 6, 8])
        assert values == sorted(values)

    def test_murnaghan_violating_triple_vanishes(self):
        values = kronecker_sequence((1,), (1,), (3,), range(10, 14))
        assert values == [0, 0, 0, 0]

    def test_pad_too_small(self):
        with pytest.raises(PadTooSmall):
            kronecker_sequence((3,), (1,), (2,), [4])


class TestReducedKronecker:
    def test_identity_class(self):
        for lam in partitions_up_to(4):
            for nu in partitions_up_to(4):
                assert reduced_kronecker(lam, (), nu) == (1 if lam == nu else 0)

    def test_golden_triple(self):
        assert reduced_kronecker((6, 4, 2), (4, 2, 2), (8, 6, 4, 2)) == 6

    def test_standard_square_entry(self):
        assert reduced_kronecker((1,), (1,), (1,)) == 1

    def test_murnaghan_short_circuit(self):
        assert reduced_kronecker((2, 1), (1,), (1,)) == 0

    def test_constant_from_start(self):
        """Each padded sequence is flat from stabilization_start through
        max(|p| + p1 over the shapes, |lam| + |mu| + |nu|) + 2."""
        shapes = list(partitions_up_to(4))
        checked = 0
        for lam, mu in itertools.combinations_with_replacement(shapes, 2):
            for nu in shapes:
                if not murnaghan_inequalities(lam, mu, nu):
                    continue
                triple = (lam, mu, nu)
                end = max(sum(map(sum, triple)), *(sum(p) + part(p, 1) for p in triple))
                start = stabilization_start(lam, mu, nu)
                values = kronecker_sequence(lam, mu, nu, range(start, end + 3))
                assert values == [reduced_kronecker(lam, mu, nu)] * len(values)
                checked += 1
        assert checked == 745

    def test_start_values(self):
        assert stabilization_start((1,), (1,), (1,)) == 3
        # one size earlier the sequence has not reached its stable value 1
        assert kronecker_sequence((1,), (1,), (1,), [2]) == [0]
        assert stabilization_start((6, 4, 2), (4, 2, 2), (8, 6, 4, 2)) == 29
        assert stabilization_start((2,) * 8, (2,) * 8, (6, 6)) == 27

    def test_unstable_next_size_raises_under_optimize_flag(self):
        """A value that moves at d+1 is an InvariantViolation, also under -O."""
        code = (
            "from kroncave import coefficients\n"
            "from kroncave.errors import InvariantViolation\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "original = coefficients.kronecker\n"
            "def drifting(lam, mu, nu):\n"
            "    return original(lam, mu, nu) + (sum(lam) == 4)\n"
            "coefficients.kronecker = drifting\n"
            "try:\n"
            "    coefficients.reduced_kronecker((1,), (1,), (1,))\n"
            "except InvariantViolation as exc:\n"
            "    print('InvariantViolation:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "InvariantViolation: padded sequence for (1,),(1,),(1,) moved past the "
            "stable bound: 1 at d=3, 2 at d=4",
        ]

    def test_matches_littlewood_formula(self):
        small, targets = list(partitions_up_to(5)), list(partitions_up_to(6))
        mismatches = [
            (lam, mu, nu)
            for lam in small
            for mu in small
            for nu in targets
            if reduced_kronecker(lam, mu, nu) != littlewood_reduced_kronecker(lam, mu, nu)
        ]
        assert mismatches == []
        # the golden triple and the `verify paper --stretch` value, without padding
        assert littlewood_reduced_kronecker((6, 4, 2), (4, 2, 2), (8, 6, 4, 2)) == 6
        assert littlewood_reduced_kronecker((2,) * 8, (2,) * 8, (6, 6)) == 80

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        st.sampled_from(list(partitions_up_to(8))),
        st.sampled_from(list(partitions_up_to(8))),
        st.sampled_from(list(partitions_up_to(10))),
    )
    def test_matches_littlewood_formula_on_larger_triples(self, lam, mu, nu):
        assert reduced_kronecker(lam, mu, nu) == littlewood_reduced_kronecker(lam, mu, nu)

    def test_symmetric_in_all_arguments(self):
        shapes = list(partitions_up_to(4))
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    v = reduced_kronecker(lam, mu, nu)
                    for perm in itertools.permutations((lam, mu, nu)):
                        assert reduced_kronecker(*perm) == v


class TestReducedTensorDecompose:
    def test_standard_square(self):
        rep = reduced_tensor_decompose((1,), (1,))
        assert rep == {(): 1, (1,): 1, (1, 1): 1, (2,): 1}

    def test_identity(self):
        rep = reduced_tensor_decompose((2, 1), ())
        assert rep == {(2, 1): 1}

    def test_support_bound(self):
        rep = reduced_tensor_decompose((2,), (1, 1))
        assert all(sum(nu) <= 4 for nu, _ in rep.items())

    def test_matches_per_triple_engine(self):
        rep = reduced_tensor_decompose((2,), (1, 1))
        for nu in partitions_up_to(4):
            assert rep.get(nu, 0) == reduced_kronecker((2,), (1, 1), nu)

    def test_top_degree_matches_padded_values(self):
        """The LR slice at |nu| = |lam| + |mu| equals the padded engine's values."""
        shapes = list(partitions_up_to(8))
        pairs = [
            pair
            for pair in itertools.combinations_with_replacement(shapes, 2)
            if sum(map(sum, pair)) <= 8
        ]
        clear_caches()
        products = {pair: reduced_tensor_decompose(*pair) for pair in pairs}
        clear_caches()
        for (lam, mu), rep in products.items():
            for nu in partitions_of(sum(lam) + sum(mu)):
                assert rep.get(nu, 0) == reduced_kronecker(lam, mu, nu), (lam, mu, nu)

    def test_top_degree_leaves_reduced_kronecker_padded(self, monkeypatch):
        """After a product, each top-degree value still costs reduced_kronecker
        its two padded kronecker calls: the LR slice writes no per-triple memo."""
        clear_caches()
        lam, mu = (2, 1), (1,)
        reduced_tensor_decompose(lam, mu)
        calls = []
        original = coefficients.kronecker

        def counted(*triple):
            calls.append(triple)
            return original(*triple)

        monkeypatch.setattr(coefficients, "kronecker", counted)
        for nu in partitions_of(4):
            calls.clear()
            reduced_kronecker(lam, mu, nu)
            assert len(calls) == 2, nu

    def test_dimension_identity_from_the_stability_bound(self):
        """Each product, evaluated at the identity of S_n, gives
        f^{lam[n]} f^{mu[n]} at n = |lam| + |mu| + lam1 + mu1 and at n + 1.
        At n - 1 it fails whenever lam and mu are both nonempty, so the bound
        at which kroncave.store checks every record is tight."""

        def holds(lam, mu, rep, n):
            try:
                total = sum(c * syt_count(pad(nu, n)) for nu, c in rep.items())
            except PadTooSmall:
                return False
            return total == syt_count(pad(lam, n)) * syt_count(pad(mu, n))

        shapes = list(partitions_up_to(8))
        pairs = [
            pair
            for pair in itertools.combinations_with_replacement(shapes, 2)
            if sum(map(sum, pair)) <= 8
        ]
        assert len(pairs) == 223
        for lam, mu in pairs:
            rep = reduced_tensor_decompose(lam, mu)
            n = sum(lam) + sum(mu) + part(lam, 1) + part(mu, 1)
            assert holds(lam, mu, rep, n) and holds(lam, mu, rep, n + 1), (lam, mu)
            if lam and mu:
                assert not holds(lam, mu, rep, n - 1), (lam, mu)

    @pytest.mark.parametrize("layer", ["lr_expand", "reduced_kronecker"])
    def test_a_wrong_value_fails_the_engine_check(self, monkeypatch, layer):
        """One value off by one, in the LR top degree or below it, fails the
        dimension identity that every computed product is checked against."""
        clear_caches()
        original = getattr(coefficients, layer)
        if layer == "lr_expand":

            def wrong(lam, mu):
                product = original(lam, mu)
                product[(3, 1)] += 1
                return product

        else:

            def wrong(lam, mu, nu):
                return original(lam, mu, nu) + (nu == (2,))

        monkeypatch.setattr(coefficients, layer, wrong)
        with pytest.raises(
            InvariantViolation,
            match=r"^stable product \(2, 1\) \* \(1,\): product fails the dimension identity at n=7$",
        ):
            reduced_tensor_decompose((2, 1), (1,))
        assert coefficients._STABLE_PRODUCTS == {}

    def test_memo_and_cache_hits_are_not_rechecked(self, monkeypatch, tmp_path):
        clear_caches()
        checked = []
        original = coefficients.check_dimension_identity

        def recording(lam, mu, product):
            checked.append((lam, mu))
            original(lam, mu, product)

        monkeypatch.setattr(coefficients, "check_dimension_identity", recording)
        cache = CoefficientCache(str(tmp_path / "cache.jsonl"))
        reduced_tensor_decompose((2, 1), (1,), cache=cache)
        reduced_tensor_decompose((1,), (2, 1), cache=cache)
        clear_caches()
        reduced_tensor_decompose((2, 1), (1,), cache=CoefficientCache(cache.path))
        assert checked == [((2, 1), (1,))]

    def test_scan_asks_reduced_kronecker_below_the_top_degree_only(self, monkeypatch):
        clear_caches()
        asked = []
        original = coefficients.reduced_kronecker

        def recording(lam, mu, nu, **kwargs):
            asked.append((lam, mu, nu))
            return original(lam, mu, nu, **kwargs)

        monkeypatch.setattr(coefficients, "reduced_kronecker", recording)
        assert scan("midpoint-reduced", 6).passed
        assert asked
        assert [t for t in asked if sum(t[2]) >= sum(t[0]) + sum(t[1])] == []


class TestStableRing:
    def test_identity_element(self):
        a = reduced_tensor_decompose((2,), (1,))
        assert stable_ring_multiply(a, {(): 1}) == a

    def test_square_of_standard_class(self):
        a = {(1,): 1}
        product = stable_ring_multiply(a, a)
        assert product == {(): 1, (1,): 1, (1, 1): 1, (2,): 1}

    def test_star_is_the_stable_product(self):
        """On two single classes the ring product is the pair's stable product."""
        assert stable_ring_multiply({(2,): 1}, {(1,): 1}) == reduced_tensor_decompose((2,), (1,))

    def test_cancelled_terms_are_dropped(self):
        """([] - [1]) * [1] = [1] - ([] + [1] + [1,1] + [2]): the [1] terms cancel."""
        product = stable_ring_multiply({(): 1, (1,): -1}, {(1,): 1})
        assert product == {(): -1, (1, 1): -1, (2,): -1}

    def test_associativity_instance(self):
        a = {(1,): 1}
        left = stable_ring_multiply(stable_ring_multiply(a, a), a)
        right = stable_ring_multiply(a, stable_ring_multiply(a, a))
        assert left == right

    def test_compare_equal(self):
        a = reduced_tensor_decompose((1,), (1,))
        result = stable_ring_compare(a, a)
        assert result.verdict == "equal"
        assert not result.negative and not result.positive

    def test_compare_dominating(self):
        a = {(): 1, (1,): 2}
        b = {(1,): 1}
        result = stable_ring_compare(a, b)
        assert result.verdict == "A>=B"
        assert result.negative == {}

    def test_compare_incomparable(self):
        a = {(2,): 1}
        b = {(1, 1): 1}
        result = stable_ring_compare(a, b)
        assert result.verdict == "incomparable"
        assert set(result.negative) == {(1, 1)}
        assert set(result.positive) == {(2,)}


# Each product is computed once; the repeat is a memo hit (stable products,
# and the character rows behind the others).
PRODUCTS = {
    "reduced_tensor_decompose": lambda: reduced_tensor_decompose((2, 1), (1,)),
    "tensor_decompose": lambda: tensor_decompose((2, 1), (2, 1)),
    "lr_expand": lambda: lr_expand((2, 1), (1,)),
    "stable_ring_multiply": lambda: stable_ring_multiply({(1,): 1}, {(1,): 1}),
    "stable_ring_multiply_sum": lambda: stable_ring_multiply({(): 2, (1,): 1}, {(1,): 1}),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_a_changed_result_does_not_change_the_next(name):
    """Every product is a fresh dict, so a caller that changes one cannot
    change what a memo hands out later."""
    clear_caches()
    first = PRODUCTS[name]()
    expected = dict(first)
    for nu in first:
        first[nu] = 0
    first[(9, 9)] = 1
    assert PRODUCTS[name]() == expected


class TestInvariantChecks:
    def test_class_sum_check_survives_optimize_flag(self):
        """A non-integral character sum raises even when asserts are compiled out."""
        code = (
            "from kroncave.coefficients import _class_sum\n"
            "from kroncave.errors import InvariantViolation\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "try:\n"
            "    _class_sum((1,), (1,), (2,), 2)\n"
            "except InvariantViolation as exc:\n"
            "    print('InvariantViolation:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("InvariantViolation: non-integral character sum")

    def test_tensor_decompose_checks_survive_optimize_flag(self):
        """A corrupted character row fails the exactness checks under -O."""
        code = (
            "from kroncave import coefficients\n"
            "from kroncave.errors import InvariantViolation\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "row = coefficients._full_row((2, 1))\n"
            "for last in (3, -4):\n"
            "    coefficients._ROWS[(2, 1)] = row[:-1] + (last,)\n"
            "    try:\n"
            "        coefficients.tensor_decompose((3,), (3,))\n"
            "    except InvariantViolation as exc:\n"
            "        print('InvariantViolation:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "InvariantViolation: non-integral character sum 1 for (2, 1) in S_3",
            "InvariantViolation: negative multiplicity -1 for (2, 1) in S_3",
        ]

    def test_stale_packed_table_is_rebuilt_under_optimize_flag(self):
        """A row replaced after the S_3 table was packed is read, not the old one."""
        code = (
            "from kroncave import coefficients\n"
            "from kroncave.errors import InvariantViolation\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "coefficients.tensor_decompose((3,), (3,))\n"
            "row = coefficients._full_row((2, 1))\n"
            "for last in (3, -4):\n"
            "    coefficients._ROWS[(2, 1)] = row[:-1] + (last,)\n"
            "    try:\n"
            "        coefficients.tensor_decompose((3,), (3,))\n"
            "    except InvariantViolation as exc:\n"
            "        print('InvariantViolation:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "InvariantViolation: non-integral character sum 1 for (2, 1) in S_3",
            "InvariantViolation: negative multiplicity -1 for (2, 1) in S_3",
        ]

    def test_total_past_the_slot_bound_raises(self):
        clear_caches()
        lam = (3, 2, 1)
        tensor_decompose(lam, lam)
        table = coefficients._PACKED[6]
        try:
            coefficients._PACKED[6] = table._replace(bound=1)
            with pytest.raises(InvariantViolation, match="past the slot bound 1"):
                tensor_decompose(lam, lam)
        finally:
            clear_caches()


@pytest.mark.parametrize(
    "function, args",
    [
        (kronecker, ((3, 0), (3,), (3,))),  # g((3), (3), (3)) is 1, not 0
        (lr_coefficient, ((1, 0), (1,), (2,))),  # c^(2)_{(1)(1)} is 1, not 0
        (reduced_tensor_decompose, ((1, 0), (1,))),  # [1]*[1] has the term (): 1
        (kronecker, ((1, 2), (3,), (3,))),  # as kronecker((1, 2), (2, 1), (2, 1))
        (reduced_kronecker, ((1, 0), (5,), (1,))),  # fails the size triangle
        (reduced_kronecker, ((2, -1), (1,), (1,))),
        (lr_expand, ((1, 2), (1,))),  # was {(2, 2): 1}
        (reduced_hook, (1, 1, (0,))),  # was 2; nu = () gives 1
        (reduced_hook, (1, 1, (1, 1, 0))),  # was 0; nu = (1, 1) gives 1
        (reduced_two_row, (2, 2, (1, 2))),  # was 0
        (tensor_decompose, ((3, 0), (3,))),  # was {(3,): 1}, with a (3, 0) row
        (check_payload, ("midpoint_kronecker", ((2, 0), (2,)))),  # passed as lambda=2,0
        (character_value, ((2, 1, 0), (1, 1, 1))),  # was 2
        (stable_ring_compare, ({(1, 0): 1}, {(1,): 1})),  # was incomparable
        (stable_ring_compare, ({(1, 2): 1}, {(2, 1): 1})),  # was incomparable
        (pad, ((1, 2), 6)),  # was (3, 1, 2)
        (stabilization_start, ((1, 0), (1,), (1,))),  # was 3
        (midpoint, ((1, 2), (1, 2))),  # was (1, 2)
        (midpoint, ((2,), (0, 2))),  # was (1, 1)
        (union_parts, ((1, 2), (0,))),  # was (2, 1, 0)
        (interleave_split, ((1, 2), 2)),  # was [(1,), (2,)]
    ],
    ids=["zero-part-kronecker", "zero-part-lr", "zero-part-redtensor",
         "increasing-kronecker", "zero-part-redkron", "negative-part-redkron",
         "increasing-lr-expand", "zero-target-hook", "trailing-zero-target-hook",
         "increasing-target-two-row", "zero-part-tensor", "zero-part-midpoint-kronecker",
         "zero-part-character", "zero-part-compare", "increasing-compare",
         "increasing-pad", "zero-part-stabilization-start", "increasing-midpoint",
         "zero-part-midpoint", "zero-part-union", "increasing-interleave"],
)
def test_non_partitions_raise_before_any_shortcut(function, args):
    """A zero, negative or increasing part is a ValueError, never a value
    read off the size or containment checks."""
    with pytest.raises(ValueError, match="not a partition"):
        function(*args)
