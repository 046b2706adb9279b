import json
import logging
import random

import pytest
from hypothesis import given, strategies as st

from kroncave.coefficients import clear_caches, reduced_kronecker
from kroncave.errors import PartitionParseError
from kroncave.partitions import partitions_up_to
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


def redkron_line(value, lam="2", mu="1", nu="1"):
    return json.dumps(
        {
            "kind": "redkron",
            "lambda": lam,
            "mu": mu,
            "nu": nu,
            "value": value,
            "engineVersion": ENGINE_VERSION,
        }
    )


class TestCoefficientCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CoefficientCache(str(path))
        cache.put((2, 2), (2, 2), (2, 2), 1)
        assert cache.get((2, 2), (2, 2), (2, 2)) == 1
        assert path.read_text(encoding="utf-8") == (
            '{"kind":"redkron","lambda":"2,2","mu":"2,2","nu":"2,2","value":"1",'
            f'"engineVersion":"{ENGINE_VERSION}"}}\n'
        )

    def test_miss_on_empty(self, tmp_path):
        cache = CoefficientCache(str(tmp_path / "c.jsonl"))
        assert cache.get((1,), (1,), (1,)) is None

    def test_reload_from_disk(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        CoefficientCache(path).put((3, 1), (2,), (4, 2), 7)
        assert CoefficientCache(path).get((3, 1), (2,), (4, 2)) == 7

    def test_argument_order_is_canonicalized(self, tmp_path):
        cache = CoefficientCache(str(tmp_path / "c.jsonl"))
        cache.put((3, 1), (2,), (1,), 5)
        assert cache.get((2,), (3, 1), (1,)) == 5

    def test_stale_engine_version_is_a_miss(self, tmp_path):
        path = tmp_path / "c.jsonl"
        stale = json.loads(redkron_line("1"))
        stale["engineVersion"] = "0.0.1"
        path.write_text(json.dumps(stale) + "\n", encoding="utf-8")
        assert CoefficientCache(str(path)).get((2,), (1,), (1,)) is None

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = redkron_line("3")
        negative = redkron_line("-4", lam="1")
        underscored = redkron_line("1_0", lam="1", nu="2")
        lines = ["not json", '{"kind": "bad"}', good, negative, underscored, '{"trunc']
        path.write_text("\n".join(lines), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = CoefficientCache(str(path))
            assert cache.get((2,), (1,), (1,)) == 3
            assert cache.get((1,), (1,), (1,)) is None
            assert cache.get((1,), (1,), (2,)) is None
        assert sum("skipping corrupt cache line" in r.message for r in caplog.records) == 5

    def test_non_string_partition_fields_are_corrupt_lines(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        bad = [
            redkron_line("1", **{field: wrong})
            for field in ("lam", "mu", "nu")
            for wrong in (5, True, ["1"])
        ]
        lines = [redkron_line("3"), *bad, redkron_line("2", lam="3", mu="2")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = CoefficientCache(str(path))
            assert cache.get((2,), (1,), (1,)) == 3
            assert cache.get((3,), (2,), (1,)) == 2
            assert len(cache) == 2
        skipped = [r.message for r in caplog.records if "skipping corrupt cache line" in r.message]
        assert [m.split(": ")[0] for m in skipped] == [f"{path}:{i}" for i in range(2, 11)]

    def test_conflicting_records_are_a_miss(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        lines = [redkron_line("1"), redkron_line("5"), redkron_line("1")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cache = CoefficientCache(str(path))
        with caplog.at_level(logging.WARNING):
            assert cache.get((2,), (1,), (1,)) is None
        assert [r.message.split(": ")[0] for r in caplog.records] == [f"{path}:2"]
        assert "conflicting cache records" in caplog.records[0].message
        # a computed value is served in process, but not appended to a file
        # whose records for the key already disagree
        cache.put((2,), (1,), (1,), 1)
        assert cache.get((2,), (1,), (1,)) == 1
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_values_survive_as_exact_integers(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        big = 12345678901234567890123456789
        CoefficientCache(path).put((9,), (9,), (9,), big)
        assert CoefficientCache(path).get((9,), (9,), (9,)) == big

    def test_duplicate_put_appends_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CoefficientCache(str(path))
        for _ in range(3):
            cache.put((1,), (1,), (1,), 1)
        assert len(path.read_text().strip().splitlines()) == 1


class TestRecordingCache:
    def test_buffers_instead_of_writing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = RecordingCache(str(path))
        rec.put((2,), (1,), (1,), 4)
        assert not path.exists()
        drained = rec.drain()
        assert drained == [(((1,), (2,), (1,)), 4)] and rec.drain() == []
        # the parent replays the drained writes into the real store
        cache = CoefficientCache(str(path))
        for key, value in drained:
            cache.put(*key, value)
        assert CoefficientCache(str(path)).get((1,), (2,), (1,)) == 4


class TestPutMany:
    RECORDS = [
        (((1,), (1,), (1,)), 1),  # already in the file: skipped
        (((2,), (1,), (1,)), 6),  # a conflicted key: never written
        (((2, 1), (2,), (1, 1)), 1),
        (((2,), (2, 1), (1, 1)), 1),  # the same key again: skipped
        (((1,), (1,), ()), 1),
    ]
    PLANTED = [(("1", "1", "1"), "1"), (("1", "2", "1"), "4"), (("1", "2", "1"), "5")]

    def _planted(self, path):
        path.write_text("".join(
            json.dumps({"kind": "redkron", "lambda": lam, "mu": mu, "nu": nu,
                        "value": value, "engineVersion": ENGINE_VERSION}) + "\n"
            for (lam, mu, nu), value in self.PLANTED
        ))
        return CoefficientCache(str(path))

    def test_same_lines_as_put_under_one_open(self, tmp_path, monkeypatch):
        from kroncave import store

        one_by_one = self._planted(tmp_path / "put.jsonl")
        for triple, value in self.RECORDS:
            one_by_one.put(*triple, value)
        batch = self._planted(tmp_path / "batch.jsonl")
        len(batch)  # load the file before opens are counted
        opens = []

        def counted(path, mode="r", *args, **kwargs):
            opens.append(mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(store, "open", counted, raising=False)
        batch.put_many(self.RECORDS)
        assert opens == ["a"]
        text = (tmp_path / "batch.jsonl").read_text()
        assert text == (tmp_path / "put.jsonl").read_text()
        assert len(text.splitlines()) == len(self.PLANTED) + 2
        opens.clear()
        batch.put_many(self.RECORDS)
        assert opens == []

    def test_view_starts_from_the_loaded_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = self._planted(path)
        view = cache.view()
        assert view.get((1,), (1,), (1,)) == 1
        assert view.get((1,), (2,), (1,)) is None  # the conflict stays a miss
        view.put((1,), (1,), (1,), 1)
        view.put((1,), (1,), (2,), 1)
        assert view.drain() == [(((1,), (1,), (2,)), 1)]
        assert len(path.read_text().splitlines()) == len(self.PLANTED)  # the view wrote nothing


class TestCacheAgainstEngine:
    def test_corrupt_lines_do_not_change_results(self, tmp_path):
        path = tmp_path / "c.jsonl"
        clean = reduced_kronecker((2,), (1, 1), (2, 1))
        path.write_text("garbage line\n", encoding="utf-8")
        clear_caches()
        assert reduced_kronecker((2,), (1, 1), (2, 1), cache=CoefficientCache(str(path))) == clean

    def test_memo_hit_writes_nothing(self, tmp_path):
        """A cache gets a line for each value computed while it is attached."""
        path = tmp_path / "c.jsonl"
        clear_caches()
        value = reduced_kronecker((2,), (1, 1), (2, 1))
        cache = CoefficientCache(str(path))
        assert reduced_kronecker((2,), (1, 1), (2, 1), cache=cache) == value
        assert len(cache) == 0 and not path.exists()

    def test_hit_equals_cold_computation(self, tmp_path):
        rng = random.Random(7)
        shapes = list(partitions_up_to(4))
        triples = [
            (rng.choice(shapes), rng.choice(shapes), rng.choice(shapes))
            for _ in range(100)
        ]
        path = str(tmp_path / "c.jsonl")
        cache = CoefficientCache(path)
        cold = [reduced_kronecker(*t, cache=cache) for t in triples]
        clear_caches()
        warm_cache = CoefficientCache(path)
        warm = [reduced_kronecker(*t, cache=warm_cache) for t in triples]
        assert cold == warm
