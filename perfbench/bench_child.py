"""One benchmark operation in a fresh interpreter.

Started by run.py as `python -I bench_child.py SPEC`, where SPEC is a JSON
object with the keys workload, jobs, trace, t0, src, cache and result. The
child imports kroncave from SPEC["src"] only, runs one operation of the
workload, and writes its timings, outputs and (when traced) per-layer
metrics as JSON to SPEC["result"].

Exit codes: 0 when the result file was written (a failed or raising
operation is reported in it, not by the exit code); 3 when kroncave cannot
be imported from SPEC["src"].
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

PROGRAM_MISSING = 3


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_kib() -> int:
    # High-water mark of one process: this one or the largest reaped worker.
    # ru_maxrss is in KiB on Linux; it is never a sum over processes.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _file_state(path: str) -> tuple[int, int]:
    """(lines, bytes) of a cache file; (0, 0) when it does not exist."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0, 0
    return data.count(b"\n"), len(data)


def run_workload(spec: dict, outputs: dict) -> None:
    """Run one operation, recording each output text under its label."""
    import kroncave
    from bench_workloads import FIXED_N_SCANS, STABLE_SCAN, WARM_CALLS, scan_label

    workload, cache_path = spec["workload"], spec["cache"]
    if workload == "golden":
        cache = kroncave.CoefficientCache(cache_path)
        for check in kroncave.conjectures.run_golden_suite(cache=cache):
            text = "passed" if check.passed else f"failed: {check.detail}"
            outputs[f"golden:{check.name}"] = text
    elif workload in ("stable-scan", "fixed-n-scans"):
        if workload == "stable-scan":
            scans = [(STABLE_SCAN[0], STABLE_SCAN[1], spec["jobs"])]
        else:
            scans = FIXED_N_SCANS
        for conjecture, max_boxes, jobs in scans:
            cache = kroncave.CoefficientCache(cache_path)
            report = kroncave.conjectures.scan(conjecture, max_boxes, jobs=jobs, cache=cache)
            outputs[scan_label(conjecture, max_boxes)] = report.canonical_json()
    elif workload == "warm-cache":
        conjecture, max_boxes, _ = STABLE_SCAN
        argv = ["scan", conjecture, "--max-boxes", str(max_boxes), "--cache", cache_path]
        for i in range(WARM_CALLS):
            kroncave.coefficients.clear_caches()
            out = f"report-{i}.json"
            size = os.path.getsize(cache_path)
            code = kroncave.cli.run_command(argv + ["--out", out])
            grown = os.path.getsize(cache_path) - size
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("elapsedMillis", None)
            text = json.dumps(report)  # the bytes canonical_json() gives
            if code != 0 or grown:
                text = f"exit {code}, cache grew by {grown} bytes: {text}"
            outputs[f"warm:{i}"] = text
    else:
        raise ValueError(f"unknown workload {workload!r}")


class Instrumentation:
    """Spans around every public layer function the workloads reach.

    Each function is wrapped at every module global that holds it, because
    conjectures and cli import the coefficients functions by name. Methods are
    wrapped on their class. The recursive character_value stays unwrapped, so
    characters are timed at CharacterTable.character.
    """

    def __init__(self, tracer):
        import kroncave
        from bench_trace import Patches

        from kroncave import characters, cli, coefficients, conjectures, store

        self.tracer = tracer
        self.patches = Patches()
        self.character_hits = 0
        self.kronecker_max_n = 0
        self.get_hits = 0
        self.load_s = 0.0
        self.scanned = 0
        self.skipped = 0
        modules = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "kroncave"
        ]

        def everywhere(name, original, outer=None):
            traced = tracer.wrap(name, original)
            self.patches.replace_everywhere(modules, original, outer(traced) if outer else traced)

        everywhere("coefficients.kronecker", coefficients.kronecker, self._kronecker)
        for fn in ("tensor_decompose", "lr_coefficient", "reduced_kronecker",
                   "reduced_tensor_decompose"):
            everywhere(f"coefficients.{fn}", getattr(coefficients, fn))
        for attr, fn in list(vars(conjectures).items()):
            if attr.startswith("check_") and callable(fn):
                everywhere("conjectures.check", fn)
        everywhere("conjectures.scan", conjectures.scan, self._scan)
        everywhere("cli.run_command", cli.run_command)

        table = characters.CharacterTable
        self.patches.set(table, "character",
                         self._character(tracer.wrap("characters.character", table.character)))
        cache = store.CoefficientCache
        self.patches.set(cache, "get", self._store_get(tracer.wrap("store.get", cache.get)))
        self.patches.set(cache, "put", self._store_put(tracer.wrap("store.put", cache.put)))
        self._kroncave = kroncave

    # Outer wrappers count what the span alone cannot see. Their own cost is
    # part of the tracing overhead, not of any span.

    def _kronecker(self, traced):
        def kronecker(lam, mu, nu, **kwargs):
            self.kronecker_max_n = max(self.kronecker_max_n, sum(lam))
            return traced(lam, mu, nu, **kwargs)
        return kronecker

    def _scan(self, traced):
        def scan(*args, **kwargs):
            report = traced(*args, **kwargs)
            self.scanned += report.pairs_scanned
            self.skipped += report.skipped
            return report
        return scan

    def _character(self, traced):
        def character(table, lam, rho):
            # A call that adds no memo entry was answered from the memo.
            entries = len(table._memo)
            value = traced(table, lam, rho)
            if len(table._memo) == entries:
                self.character_hits += 1
            return value
        return character

    def _timed_load(self, traced, cache, *args):
        if cache._index is not None:
            return traced(cache, *args)
        start = time.perf_counter()
        try:
            return traced(cache, *args)
        finally:
            self.load_s += time.perf_counter() - start

    def _store_get(self, traced):
        def get(cache, *args):
            value = self._timed_load(traced, cache, *args)
            if value is not None:
                self.get_hits += 1
            return value
        return get

    def _store_put(self, traced):
        def put(cache, *args):
            return self._timed_load(traced, cache, *args)
        return put

    def metrics(self, appends: int, file_bytes: int) -> dict[str, float]:
        t = self.tracer
        coefficients = self._kroncave.coefficients
        char_calls = t.calls("characters.character")
        get_calls = t.calls("store.get")
        seen = self.scanned + self.skipped
        out = {
            "characters.entries": len(self._kroncave.characters.DEFAULT_TABLE),
            "characters.character.calls": char_calls,
            "characters.character.self_s": t.self_s("characters.character"),
            "characters.top_hit_ratio": self.character_hits / char_calls if char_calls else 0.0,
        }
        for fn in ("kronecker", "tensor_decompose", "lr_coefficient", "reduced_kronecker",
                   "reduced_tensor_decompose"):
            out[f"coefficients.{fn}.calls"] = t.calls(f"coefficients.{fn}")
            out[f"coefficients.{fn}.self_s"] = t.self_s(f"coefficients.{fn}")
        out.update({
            "coefficients.kronecker.max_n": self.kronecker_max_n,
            "coefficients.reduced_kronecker.padded_evals_per_value":
                t.marked_per_span("coefficients.reduced_kronecker"),
            "coefficients.pair_weights.entries": len(coefficients._PAIR_WEIGHTS),
            "coefficients.reduced_memo.entries": len(coefficients._REDUCED_MEMO),
            "coefficients.stable_products.entries": len(coefficients._STABLE_PRODUCTS),
            "conjectures.check.calls": t.calls("conjectures.check"),
            "conjectures.check.self_s": t.self_s("conjectures.check"),
            "conjectures.scan.self_s": t.self_s("conjectures.scan"),
            "conjectures.scan.skipped_frac": self.skipped / seen if seen else 0.0,
            "store.load_s": self.load_s,
            "store.get.calls": get_calls,
            "store.get.hit_ratio": self.get_hits / get_calls if get_calls else 0.0,
            "store.get.self_s": t.self_s("store.get"),
            "store.put.calls": t.calls("store.put"),
            "store.put.self_s": t.self_s("store.put"),
            "store.appends": appends,
            "store.file_bytes": file_bytes,
            "cli.run_command.calls": t.calls("cli.run_command"),
            "cli.run_command.self_s": t.self_s("cli.run_command"),
        })
        return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    src = Path(spec["src"]).resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    try:
        import kroncave
        import kroncave.cli  # noqa: F401  (the package __init__ does not import cli)
    except ImportError as exc:
        print(f"bench_child: cannot import kroncave from {src}: {exc}", file=sys.stderr)
        return PROGRAM_MISSING
    if not Path(kroncave.__file__).resolve().is_relative_to(src):
        print(f"bench_child: kroncave came from {kroncave.__file__}, not {src}", file=sys.stderr)
        return PROGRAM_MISSING
    ready_s = time.monotonic() - spec["t0"]

    instrumentation = None
    if spec["trace"]:
        from bench_trace import Tracer

        instrumentation = Instrumentation(Tracer(marked_child="coefficients.kronecker"))
    lines0, _ = _file_state(spec["cache"])
    outputs: dict[str, str] = {}
    error = None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        run_workload(spec, outputs)
    except Exception:  # a raising operation is a failed output, not a crash
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    result = {
        "ready_s": ready_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kib": _peak_rss_kib(),
        "outputs": outputs,
        "error": error,
    }
    if instrumentation is not None:
        instrumentation.patches.restore()
        lines, size = _file_state(spec["cache"])
        result["layers"] = instrumentation.metrics(lines - lines0, size)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
