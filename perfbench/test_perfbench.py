"""Tests of the benchmark's own logic: span self time, scoring, metric names."""

import json
from pathlib import Path

import pytest

from bench_trace import Tracer
from bench_workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    expected_outputs,
    score,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock, marked_child="leaf")
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))

    def mid_body():
        clock.advance(0.5)
        leaf()
        leaf()
        clock.advance(0.25)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        clock.advance(2.0)
        mid()
        leaf()
        clock.advance(1.0)

    tracer.wrap("root", root_body)()

    # root: 2 + mid (0.5 + 1 + 1 + 0.25) + leaf 1 + 1 = 6.75, of which 3 is its own
    assert tracer.stats[("root", None)] == [1, 6.75, 3.0]
    assert tracer.stats[("mid", "root")] == [1, 2.75, 0.75]
    assert tracer.stats[("leaf", "mid")] == [2, 2.0, 2.0]
    assert tracer.stats[("leaf", "root")] == [1, 1.0, 1.0]
    assert tracer.calls("leaf") == 3
    assert tracer.self_s("leaf") == 3.0
    # self times add up to the root span's duration
    assert sum(rec[2] for rec in tracer.stats.values()) == 6.75
    assert tracer.marked_per_span("mid") == 2.0
    assert tracer.marked_per_span("root") == 1.0
    assert tracer.marked_per_span("leaf") == 0.0


def test_recursive_and_raising_spans_close():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(k):
        clock.advance(1.0)
        if k == 0:
            raise ValueError("bottom")
        return traced(k - 1)

    traced = tracer.wrap("f", countdown)
    with pytest.raises(ValueError):
        traced(2)
    assert tracer.stats[("f", None)] == [1, 3.0, 1.0]
    assert tracer.stats[("f", "f")] == [2, 3.0, 2.0]
    assert tracer.self_s("f") == 3.0
    assert not tracer._stack


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_outputs_score_clean(workload):
    expected = expected_outputs(workload)
    assert score(workload, dict(expected)) == (len(expected), 0)
    # a child that died reports nothing: every output counts as failed
    assert score(workload, None) == (len(expected), len(expected))


def test_mismatched_report_counts_as_failed():
    outputs = expected_outputs("fixed-n-scans")
    label = "midpoint-kronecker:26"
    assert '"pairsScanned": 778' in outputs[label]
    outputs[label] = outputs[label].replace('"pairsScanned": 778', '"pairsScanned": 777')
    assert score("fixed-n-scans", outputs) == (2, 1)

    golden = expected_outputs("golden")
    golden["golden:rectangle-parity-family"] = "failed: failed at N=[2]"
    assert score("golden", golden) == (7, 1)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


COUNTS = ("characters.entries", "store.appends")


def _traced_scan(tmp_path, name):
    kroncave = pytest.importorskip("kroncave")
    import kroncave.cli  # noqa: F401  (instrumentation wraps cli.run_command)
    from bench_child import Instrumentation

    kroncave.clear_caches()
    instrumentation = Instrumentation(Tracer(marked_child="coefficients.kronecker"))
    try:
        cache = kroncave.CoefficientCache(str(tmp_path / name))
        report = kroncave.conjectures.scan("midpoint-reduced", 4, cache=cache)
    finally:
        instrumentation.patches.restore()
    metrics = instrumentation.metrics(len(cache), 0)
    kroncave.clear_caches()
    return report, metrics


def test_instrumentation_spans_every_lookup_and_restores(tmp_path):
    kroncave = pytest.importorskip("kroncave")
    before = {
        "conjectures.kronecker": kroncave.conjectures.kronecker,
        "coefficients.kronecker": kroncave.coefficients.kronecker,
        "kroncave.scan": kroncave.scan,
        "CharacterTable.character": kroncave.CharacterTable.character,
        "CoefficientCache.get": kroncave.CoefficientCache.get,
    }
    report, first = _traced_scan(tmp_path, "a.jsonl")
    _, second = _traced_scan(tmp_path, "b.jsonl")

    assert report.pairs_scanned > 0
    for name in ("characters.character", "coefficients.kronecker",
                 "coefficients.reduced_kronecker", "conjectures.check", "store.get"):
        assert first[f"{name}.calls"] > 0, name
    assert first["conjectures.scan.self_s"] > 0
    assert first["coefficients.reduced_kronecker.padded_evals_per_value"] >= 2
    # counts repeat exactly between traced runs of the same work
    for name, value in first.items():
        if name.endswith((".calls", ".entries")) or name in COUNTS:
            assert second[name] == value, name
    assert kroncave.conjectures.kronecker is before["conjectures.kronecker"]
    assert kroncave.coefficients.kronecker is before["coefficients.kronecker"]
    assert kroncave.scan is before["kroncave.scan"]
    assert kroncave.CharacterTable.character is before["CharacterTable.character"]
    assert kroncave.CoefficientCache.get is before["CoefficientCache.get"]
