import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import kroncave
from kroncave.characters import (
    CharacterTable,
    _mask,
    character_value,
    class_sizes,
    dimension,
)
from kroncave.coefficients import clear_caches
from kroncave.errors import SizeMismatch
from kroncave.partitions import conjugate, pad, partitions_of, partitions_up_to, syt_count

from oracles import beta_list_character, class_sizes_bruteforce, syt_count_bruteforce


def _centralizer_order(rho):
    """z_rho = prod k^m * m! over the parts k of rho with multiplicity m."""
    return math.prod(k**m * math.factorial(m) for k, m in Counter(rho).items())


class TestCycleType:
    """The classes of S_n are partitions_of(n); class_sizes(n) follows that order."""

    def test_centralizer_times_class_size(self):
        for n in range(11):
            for rho, size in zip(partitions_of(n), class_sizes(n), strict=True):
                assert _centralizer_order(rho) * size == math.factorial(n)

    def test_class_sizes_sum_to_group_order(self):
        for n in range(11):
            assert sum(class_sizes(n)) == math.factorial(n)

    def test_enumeration_order(self):
        assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
        assert class_sizes(3) == (2, 3, 1)

    def test_transposition(self):
        sizes = dict(zip(partitions_of(4), class_sizes(4)))
        assert sizes[2, 1, 1] == 6  # transpositions in S_4
        assert character_value((1, 1, 1, 1), (2, 1, 1)) == -1  # and they are odd

    def test_matches_permutation_count(self):
        for n in range(8):
            assert dict(zip(partitions_of(n), class_sizes(n))) == class_sizes_bruteforce(n)

    def test_divisibility_check_survives_optimize_flag(self):
        code = (
            "from kroncave import characters\n"
            "from kroncave.errors import InvariantViolation\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "real = characters.partitions_of\n"
            "characters.partitions_of = lambda n: ((3,),) if n == 2 else real(n)\n"
            "try:\n"
            "    characters.class_sizes(2)\n"
            "except InvariantViolation as exc:\n"
            "    print('InvariantViolation:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("InvariantViolation: centralizer order 3 of (3,)")


class TestCharacter:
    def test_trivial_representation(self):
        for n in range(1, 8):
            for rho in partitions_of(n):
                assert character_value((n,), rho) == 1

    def test_sign_on_transposition(self):
        assert character_value((1, 1), (2,)) == -1

    def test_staircase_dimension_value(self):
        assert character_value((2, 1), (1, 1, 1)) == 2 == syt_count_bruteforce((2, 1))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            character_value((2, 1), (2, 2))
        warm = {}
        character_value((2, 1), (1, 1, 1), warm)
        character_value((1,), (1,), warm)
        for memo in (None, {}, warm):
            for rho in ((2, 2), (1,)):
                with pytest.raises(SizeMismatch):
                    character_value((2, 1), rho, memo)

    def test_conjugate_twists_by_sign(self):
        for n in range(9):
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    sign = (-1) ** (n - len(rho))
                    assert character_value(conjugate(lam), rho) == sign * character_value(lam, rho)

    def test_orthogonality(self):
        for n in range(9):
            classes = tuple(zip(partitions_of(n), class_sizes(n)))
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum(
                        size * character_value(lam, rho) * character_value(mu, rho)
                        for rho, size in classes
                    )
                    assert total == (math.factorial(n) if lam == mu else 0)

    def test_memoized_matches_bare_recursion(self):
        rng = random.Random(20240819)
        table = CharacterTable()
        for _ in range(100):
            n = rng.randint(1, 12)
            lam = rng.choice(partitions_of(n))
            rho = rng.choice(partitions_of(n))
            assert table.character(lam, rho) == character_value(lam, rho, memo=None)

    def test_caller_memo_matches_fresh_memo(self):
        rng = random.Random(20261018)
        memo = {}
        for _ in range(300):
            n = rng.randint(0, 12)
            lam = rng.choice(partitions_of(n))
            rho = rng.choice(partitions_of(n))
            assert character_value(lam, rho, memo) == character_value(lam, rho, memo=None)
        assert memo

    def test_values_are_ints(self):
        for lam in partitions_of(6):
            for rho in partitions_of(6):
                assert isinstance(character_value(lam, rho), int)


class TestDimension:
    def test_examples(self):
        assert dimension((5, 1)) == 5
        assert dimension((7,)) == 1
        assert dimension((3, 2, 1)) == 16

    def test_matches_bruteforce(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert dimension(lam) == syt_count_bruteforce(lam)

    def test_matches_hook_formula(self):
        for lam in partitions_of(9):
            assert dimension(lam) == syt_count(lam)


class TestBetaListOracle:
    """The abacus kernel against the beta-list recursion it replaced."""

    def test_every_class_up_to_12(self):
        for n in range(13):
            table, memo = CharacterTable(), {}
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    expected = beta_list_character(lam, rho, memo)
                    assert table.character(lam, rho) == expected, (lam, rho)
                    assert character_value(lam, rho, memo=None) == expected, (lam, rho)
            # one memo entry per reachable (shape, cycles) in both engines
            assert len(table) == len(memo), n

    def test_golden_shapes_in_s40(self):
        classes = random.Random(40).sample(partitions_of(40), 200)
        table, memo = CharacterTable(), {}
        for lam in ((28, 6, 4, 2), (32, 4, 2, 2), (20, 8, 6, 4, 2)):
            for rho in classes:
                assert table.character(lam, rho) == beta_list_character(lam, rho, memo)
        assert len(table) == len(memo)


class TestMemoFootprint:
    def test_bytes_per_entry(self):
        """The memo holds each cycle type once, with int-keyed rows of shapes."""
        shapes = [pad(lam, 20) for lam in partitions_up_to(6)]
        classes = partitions_of(20)
        for lam in shapes:
            _mask(lam)
        table = CharacterTable()
        tracemalloc.start()
        try:
            for lam in shapes:
                for rho in classes:
                    table.character(lam, rho)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(table) <= 100, (held, len(table))


class TestHitFirstLookup:
    def test_size_mismatch_on_warm_table(self):
        table = CharacterTable()
        shapes = list(partitions_up_to(6))
        for lam in shapes:
            for rho in partitions_of(sum(lam)):
                table.character(lam, rho)
        for lam in shapes:
            for rho in shapes:
                if sum(lam) != sum(rho):
                    with pytest.raises(SizeMismatch):
                        table.character(lam, rho)
        # (1, 2) has a repeated bead; its mask would be the warm key of (2)
        with pytest.raises(ValueError, match="not a partition"):
            table.character((1, 2), (2,))

    def test_size_mismatch_survives_optimize_flag(self):
        code = (
            "from kroncave.characters import character_value\n"
            "from kroncave.errors import SizeMismatch\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "assert character_value((2, 1), (1, 1, 1)) == 2\n"
            "try:\n"
            "    character_value((2, 1), (2, 2))\n"
            "except SizeMismatch as exc:\n"
            "    print('SizeMismatch:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("SizeMismatch: |lam|=3")

    def test_clear_caches_empties_mask_cache(self):
        from kroncave import characters, coefficients, partitions

        character_value((3, 1), (2, 2))
        coefficients.tensor_decompose((2, 1), (2, 1))
        coefficients.lr_expand((2, 1), (1,))
        coefficients.reduced_tensor_decompose((1,), (1,))
        memos = {
            f"{module.__name__}.{name}": fn
            for module in (characters, coefficients, partitions)
            for name, fn in vars(module).items()
            if hasattr(fn, "cache_clear")
        }
        stores = {
            name: value
            for name, value in vars(coefficients).items()
            if type(value) is dict and not name.startswith("__")
        }
        assert {"kroncave.characters._mask", "kroncave.partitions.padded_syt_count"} <= set(memos)
        assert {"_ROWS", "_PAIR_WEIGHTS", "_REDUCED_MEMO", "_STABLE_PRODUCTS"} <= set(stores)
        assert _mask.cache_info().currsize > 0
        assert partitions.padded_syt_count.cache_info().currsize > 0
        assert all(stores.values()), {name: len(value) for name, value in stores.items()}
        clear_caches()
        assert {name: fn.cache_info().currsize for name, fn in memos.items()} == dict.fromkeys(
            memos, 0
        )
        assert {name: len(value) for name, value in stores.items()} == dict.fromkeys(stores, 0)
        assert len(characters.DEFAULT_TABLE) == 0
