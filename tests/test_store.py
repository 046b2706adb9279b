import json
import logging
import random

import pytest
from hypothesis import given, strategies as st

from kroncave.coefficients import clear_caches, reduced_tensor_decompose
from kroncave.errors import PartitionParseError
from kroncave.partitions import pad, partitions_up_to, syt_count
from kroncave.store import (
    CoefficientCache,
    ENGINE_VERSION,
    RecordingCache,
    format_partition,
    parse_partition_text,
)


class TestPartitionText:
    def test_parse_examples(self):
        assert parse_partition_text("3,3,1,1") == (3, 3, 1, 1)
        assert parse_partition_text("-") == ()

    def test_rejects_increasing(self):
        with pytest.raises(PartitionParseError) as err:
            parse_partition_text("1,2")
        assert err.value.position == 2

    def test_rejects_garbage(self):
        for bad in ("", "3,,1", "a", "3, 1", "0", "-1", "01", "3,01", "\u0661"):
            with pytest.raises(PartitionParseError):
                parse_partition_text(bad)

    def test_format_examples(self):
        assert format_partition((3, 3, 1, 1)) == "3,3,1,1"
        assert format_partition(()) == "-"

    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=8))
    def test_roundtrip(self, parts):
        p = tuple(sorted(parts, reverse=True))
        assert parse_partition_text(format_partition(p)) == p


# True products [1]*[1] and [2]*[1], as record fields; both pass the
# dimension identity, at n = 4 and n = 6.
PRODUCT_1_1 = {"-": "1", "1": "1", "2": "1", "1,1": "1"}
PRODUCT_2_1 = {"1": "1", "2": "1", "1,1": "1", "3": "1", "2,1": "1"}
# A wrong [2]*[1]: (3) moved to (1). Both pad to shapes with 5 standard
# tableaux at n = 6, so the record still passes the dimension identity.
CANCELLING_2_1 = {"1": "2", "2": "1", "1,1": "1", "2,1": "1"}


def redtensor_line(product=PRODUCT_2_1, lam="2", mu="1", version=ENGINE_VERSION):
    return json.dumps(
        {"kind": "redtensor", "lambda": lam, "mu": mu, "product": product,
         "engineVersion": version}
    )


def parsed(product: dict) -> dict:
    return {parse_partition_text(nu): int(c) for nu, c in product.items()}


class TestCoefficientCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CoefficientCache(str(path))
        cache.put((1,), (1,), parsed(PRODUCT_1_1))
        assert cache.get((1,), (1,)) == parsed(PRODUCT_1_1)
        assert path.read_text(encoding="utf-8") == (
            '{"kind":"redtensor","lambda":"1","mu":"1",'
            '"product":{"-":"1","1":"1","1,1":"1","2":"1"},'
            f'"engineVersion":"{ENGINE_VERSION}"}}\n'
        )

    def test_miss_on_empty(self, tmp_path):
        cache = CoefficientCache(str(tmp_path / "c.jsonl"))
        assert cache.get((1,), (1,)) is None

    def test_reload_from_disk(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        product = reduced_tensor_decompose((3, 1), (2,))
        CoefficientCache(path).put((3, 1), (2,), product)
        assert CoefficientCache(path).get((3, 1), (2,)) == product

    def test_argument_order_is_canonicalized(self, tmp_path):
        cache = CoefficientCache(str(tmp_path / "c.jsonl"))
        cache.put((3, 1), (2,), {(1,): 5})
        assert cache.get((2,), (3, 1)) == {(1,): 5}

    def test_stale_engine_version_is_a_miss(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(redtensor_line(version="0.0.1") + "\n", encoding="utf-8")
        assert CoefficientCache(str(path)).get((2,), (1,)) is None

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = redtensor_line()
        negative = redtensor_line({**PRODUCT_1_1, "2": "-4"}, lam="1")
        underscored = redtensor_line({**PRODUCT_2_1, "3": "1_0"}, lam="3")
        lines = ["not json", '{"kind": "bad"}', good, negative, underscored, '{"trunc']
        path.write_text("\n".join(lines), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = CoefficientCache(str(path))
            assert cache.get((2,), (1,)) == parsed(PRODUCT_2_1)
            assert cache.get((1,), (1,)) is None
            assert cache.get((3,), (1,)) is None
        assert sum("skipping corrupt cache line" in r.message for r in caplog.records) == 5

    def test_non_string_partition_fields_are_corrupt_lines(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        bad = []
        for field in ("lambda", "mu", "product"):
            for wrong in (5, True, ["1"]):
                obj = json.loads(redtensor_line())
                obj[field] = wrong
                bad.append(json.dumps(obj))
        lines = [redtensor_line(), *bad, redtensor_line(PRODUCT_1_1, lam="1")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = CoefficientCache(str(path))
            assert cache.get((2,), (1,)) == parsed(PRODUCT_2_1)
            assert cache.get((1,), (1,)) == parsed(PRODUCT_1_1)
            assert len(cache) == 2
        skipped = [r.message for r in caplog.records if "skipping corrupt cache line" in r.message]
        assert [m.split(": ")[0] for m in skipped] == [f"{path}:{i}" for i in range(2, 11)]

    def test_records_failing_the_dimension_identity_are_corrupt_lines(self, tmp_path, caplog):
        """One coefficient too high, or a nu too large to pad to n = 6, fails
        the identity; a wrong record whose errors cancel passes it."""
        path = tmp_path / "c.jsonl"
        lines = [
            redtensor_line({**PRODUCT_2_1, "3": "2"}),
            redtensor_line({**PRODUCT_2_1, "5": "1"}),
            redtensor_line({"1": "3"}, lam="1"),  # [1]*[1] sums 3 f^(3,1) = 9 at n = 4
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = CoefficientCache(str(path))
            assert cache.get((2,), (1,)) is None
            assert cache.get((1,), (1,)) == {(1,): 3}
        messages = [r.message for r in caplog.records]
        assert [m.split(": ")[0] for m in messages] == [f"{path}:1", f"{path}:2"]
        assert all("skipping corrupt cache line" in m for m in messages)
        assert "product fails the dimension identity at n=6" in messages[0]
        assert "need d >= 10 to pad (5,)" in messages[1]

    def test_conflicting_records_are_a_miss(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        lines = [redtensor_line(), redtensor_line(CANCELLING_2_1), redtensor_line()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cache = CoefficientCache(str(path))
        with caplog.at_level(logging.WARNING):
            assert cache.get((2,), (1,)) is None
        assert [r.message.split(": ")[0] for r in caplog.records] == [f"{path}:2"]
        assert "conflicting cache records" in caplog.records[0].message
        # a computed product is served in process, but not appended to a file
        # whose records for the pair already disagree
        cache.put((2,), (1,), parsed(PRODUCT_2_1))
        assert cache.get((2,), (1,)) == parsed(PRODUCT_2_1)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_values_survive_as_exact_integers(self, tmp_path):
        """[4,4,4]*[4,4,4] with all its weight on the empty class passes the
        identity at n = 32, since (32) has one standard tableau."""
        path = str(tmp_path / "c.jsonl")
        lam = (4, 4, 4)
        big = syt_count(pad(lam, 32)) ** 2
        assert big > 2**64
        CoefficientCache(path).put(lam, lam, {(): big})
        assert CoefficientCache(path).get(lam, lam) == {(): big}

    def test_duplicate_put_appends_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CoefficientCache(str(path))
        for _ in range(3):
            cache.put((1,), (1,), parsed(PRODUCT_1_1))
        assert len(path.read_text().strip().splitlines()) == 1


class TestRecordingCache:
    def test_buffers_instead_of_writing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = RecordingCache(str(path))
        rec.put((2,), (1,), parsed(PRODUCT_2_1))
        assert not path.exists()
        drained = rec.drain()
        assert drained == [(((1,), (2,)), parsed(PRODUCT_2_1))] and rec.drain() == []
        # the parent replays the drained writes into the real store
        cache = CoefficientCache(str(path))
        for key, product in drained:
            cache.put(*key, product)
        assert CoefficientCache(str(path)).get((1,), (2,)) == parsed(PRODUCT_2_1)


class TestPutMany:
    """Many records put one by one onto a planted file."""

    RECORDS = [
        (((1,), (1,)), parsed(PRODUCT_1_1)),  # already in the file: skipped
        (((2,), (1,)), parsed(PRODUCT_2_1)),  # a conflicted pair: never written
        (((2,), ()), {(2,): 1}),
        (((), (2,)), {(2,): 1}),  # the same pair again: skipped
        (((1,), ()), {(1,): 1}),
    ]
    PLANTED = [("1", "1", PRODUCT_1_1), ("1", "2", PRODUCT_2_1), ("1", "2", CANCELLING_2_1)]

    def _planted(self, path):
        path.write_text("".join(
            redtensor_line(product, lam, mu) + "\n" for lam, mu, product in self.PLANTED
        ))
        return CoefficientCache(str(path))

    def test_put_appends_each_new_record_under_one_open(self, tmp_path, monkeypatch):
        """Of five records put one by one, the held one, the conflicted one and
        the repeated one append nothing; the other two append a line each."""
        from kroncave import store

        cache = self._planted(tmp_path / "c.jsonl")
        len(cache)  # load the file before opens are counted
        opens = []

        def counted(path, mode="r", *args, **kwargs):
            opens.append(mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(store, "open", counted, raising=False)
        for pair, product in self.RECORDS:
            cache.put(*pair, product)
        assert opens == ["a", "a"]
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        appended = [json.loads(line) for line in lines[len(self.PLANTED):]]
        assert appended == [
            json.loads(redtensor_line({"2": "1"}, "-", "2")),
            json.loads(redtensor_line({"1": "1"}, "-", "1")),
        ]
        opens.clear()
        for pair, product in self.RECORDS:
            cache.put(*pair, product)
        assert opens == []

    def test_view_starts_from_the_loaded_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = self._planted(path)
        view = cache.view()
        assert view.get((1,), (1,)) == parsed(PRODUCT_1_1)
        assert view.get((1,), (2,)) is None  # the conflict stays a miss
        view.put((1,), (1,), parsed(PRODUCT_1_1))
        view.put((1,), (), {(1,): 1})
        assert view.drain() == [(((), (1,)), {(1,): 1})]
        assert len(path.read_text().splitlines()) == len(self.PLANTED)  # the view wrote nothing


class TestCacheAgainstEngine:
    def test_corrupt_lines_do_not_change_results(self, tmp_path):
        path = tmp_path / "c.jsonl"
        clean = reduced_tensor_decompose((2,), (1, 1))
        path.write_text("garbage line\n", encoding="utf-8")
        clear_caches()
        cache = CoefficientCache(str(path))
        assert reduced_tensor_decompose((2,), (1, 1), cache=cache) == clean

    def test_memo_hit_writes_nothing(self, tmp_path):
        """A cache gets a record for each product computed while it is attached."""
        path = tmp_path / "c.jsonl"
        clear_caches()
        product = reduced_tensor_decompose((2,), (1, 1))
        cache = CoefficientCache(str(path))
        assert reduced_tensor_decompose((2,), (1, 1), cache=cache) == product
        assert len(cache) == 0 and not path.exists()

    def test_hit_equals_cold_computation(self, tmp_path):
        rng = random.Random(7)
        shapes = list(partitions_up_to(4))
        pairs = [(rng.choice(shapes), rng.choice(shapes)) for _ in range(100)]
        path = str(tmp_path / "c.jsonl")
        cache = CoefficientCache(path)
        cold = [reduced_tensor_decompose(*p, cache=cache) for p in pairs]
        clear_caches()
        warm_cache = CoefficientCache(path)
        warm = [reduced_tensor_decompose(*p, cache=warm_cache) for p in pairs]
        assert cold == warm
