"""Workload names, pinned reference outputs and the correctness score.

Shared by the benchmark entry point (`run.py`) and the child process that runs one
operation (`bench_child.py`). Importing this module does not import kroncave.

Every workload has pinned inputs: exhaustive enumerations within a box
budget and the paper's fixed triples. The reference outputs were produced by
the package at the commit that added this benchmark.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WORKLOADS = ("golden", "stable-scan", "fixed-n-scans", "warm-cache")

# (conjecture, max boxes, jobs) per scan workload; the traced pass runs jobs=1.
STABLE_SCAN = ("midpoint-reduced", 10, 2)
FIXED_N_SCANS = (("midpoint-kronecker", 26, 1), ("schur-lr", 16, 1))
# In-process CLI calls per warm-cache operation, each after clear_caches().
WARM_CALLS = 10

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "characters.entries": "count",
    "characters.character.calls": "count",
    "characters.character.self_s": "s",
    "characters.top_hit_ratio": "fraction",
    "coefficients.kronecker.calls": "count",
    "coefficients.kronecker.self_s": "s",
    "coefficients.kronecker.max_n": "n",
    "coefficients.pair_weights.entries": "count",
    "coefficients.tensor_decompose.calls": "count",
    "coefficients.tensor_decompose.self_s": "s",
    "coefficients.lr_coefficient.calls": "count",
    "coefficients.lr_coefficient.self_s": "s",
    "coefficients.reduced_kronecker.calls": "count",
    "coefficients.reduced_kronecker.self_s": "s",
    "coefficients.reduced_kronecker.padded_evals_per_value": "count",
    "coefficients.reduced_memo.entries": "count",
    "coefficients.reduced_tensor_decompose.calls": "count",
    "coefficients.reduced_tensor_decompose.self_s": "s",
    "coefficients.stable_products.entries": "count",
    "conjectures.check.calls": "count",
    "conjectures.check.self_s": "s",
    "conjectures.scan.self_s": "s",
    "conjectures.scan.skipped_frac": "fraction",
    "conjectures.scan.jobs1_wall_s": "s",
    "conjectures.scan.speedup": "ratio",
    "store.load_s": "s",
    "store.get.calls": "count",
    "store.get.hit_ratio": "fraction",
    "store.get.self_s": "s",
    "store.put.calls": "count",
    "store.put.self_s": "s",
    "store.appends": "count",
    "store.file_bytes": "bytes",
    "cli.run_command.calls": "count",
    "cli.run_command.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def scan_label(conjecture: str, max_boxes: int) -> str:
    return f"{conjecture}:{max_boxes}"


def expected_outputs(workload: str) -> dict[str, str]:
    """Label -> pinned output text for one operation of the workload."""
    scans = REFERENCE["scans"]
    if workload == "golden":
        return {f"golden:{name}": "passed" for name in REFERENCE["golden"]}
    if workload == "stable-scan":
        label = scan_label(*STABLE_SCAN[:2])
        return {label: scans[label]}
    if workload == "fixed-n-scans":
        labels = [scan_label(c, b) for c, b, _ in FIXED_N_SCANS]
        return {label: scans[label] for label in labels}
    if workload == "warm-cache":
        report = scans[scan_label(*STABLE_SCAN[:2])]
        return {f"warm:{i}": report for i in range(WARM_CALLS)}
    raise ValueError(f"unknown workload {workload!r}")


def score(workload: str, outputs: dict[str, str] | None) -> tuple[int, int]:
    """(attempted, failed) for one operation.

    An output that differs from the reference, or is missing because the
    operation raised or its process died (outputs is None), counts as failed.
    """
    expected = expected_outputs(workload)
    outputs = outputs or {}
    failed = sum(1 for label, text in expected.items() if outputs.get(label) != text)
    return len(expected), failed


def median(values):
    return statistics.median(values) if values else 0.0
