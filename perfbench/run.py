"""kroncave benchmark: cold end-to-end workloads and a traced per-layer pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload golden --seed 1 --seconds 28 --trace 0

Every operation runs in a fresh `python -I` child (see bench_child.py) with a
new temporary working directory under .perfbench_tmp/, no KRONCAVE_CACHE in
its environment and an explicit new cache path, so no memo, lru cache, stray
cache file or ru_maxrss carries over from one operation to the next.

--workload all (the default) runs the four workloads in turn and prefixes
each metric name with its workload.

--trace 0 repeats untraced operations for about --seconds and reports the
end-to-end metrics as medians over the operations. --trace 1 runs one
traced operation, then untraced ones for about --seconds, and reports the
per-layer metrics plus the tracing overhead (traced wall minus the untraced
median). The workload inputs are pinned enumerations, so --seed changes
nothing; it is accepted so that every run names one.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Every output is
compared with reference.json; a mismatch counts as failed and does not stop
the run. Exit code 2 means the package source is missing or cannot be
imported, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench_child import PROGRAM_MISSING
from bench_workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    STABLE_SCAN,
    WORKLOADS,
    median,
    score,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # children still running this long after a run starts are killed

OMITTED = {
    "verify paper --stretch": "22.6 s per operation is too long for 22 runs per check",
    "check_murnaghan_littlewood(8)": "covers the same layers as stable-scan; golden runs budget 5",
    "tier-1 suite wall time": "measures CI, not a user workload",
}


class ProgramMissing(Exception):
    pass


class Runner:
    """Starts child operations in one scratch directory and scores them."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("KRONCAVE_CACHE", "PYTHONPATH")}

    def op(self, workload: str, *, jobs: int = 1, trace: bool = False,
           cache: Path | None = None) -> dict | None:
        """Run one operation; return its result with spawn-to-exit time, or None."""
        self.count += 1
        workdir = self.scratch / f"op{self.count}"
        workdir.mkdir(parents=True)
        spec = {
            "workload": workload,
            "jobs": jobs,
            "trace": trace,
            "src": str(SRC),
            "cache": str(cache or workdir / "cache.jsonl"),
            "result": str(workdir / "result.json"),
        }
        spec["t0"] = start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH_DIR / "bench_child.py"), json.dumps(spec)],
            cwd=workdir, env=self.env, stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:  # timed out, or this run is being stopped
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                proc.wait()
        total_s = time.monotonic() - start
        if code == PROGRAM_MISSING:
            raise ProgramMissing(f"the child could not import kroncave from {SRC}")
        result = None
        if code == 0:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            result["total_s"] = total_s
        attempted, failed = score(workload, result and result["outputs"])
        self.attempted += attempted
        self.failed += failed
        status = f"exit {code}" if result is None else (
            f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
            f"rss {result['peak_rss_kib'] / 1024:.1f} MiB, ready {result['ready_s']:.3f} s"
        )
        print(f"{workload} jobs={jobs} trace={int(trace)}: {status}, "
              f"{attempted - failed}/{attempted} outputs correct")
        if result and result["error"]:
            print(result["error"], file=sys.stderr)
        return result

    def fill(self) -> tuple[Path, float]:
        """Cold-scan into a new cache file for warm-cache; return it and the fill time."""
        cache = self.scratch / "warm-cache.jsonl"
        result = self.op("stable-scan", jobs=STABLE_SCAN[2], cache=cache)
        return cache, (result["total_s"] if result else 0.0)

    def repeat(self, workload: str, seconds: float, **kwargs) -> list[dict]:
        """Run operations while the next one is expected to be half done within seconds.

        So a run lasts about `seconds` whatever the length of one operation.
        At least one operation runs. Return the results of those that finished.
        """
        start = time.monotonic()
        results, spans = [], []
        while True:
            began = time.monotonic()
            result = self.op(workload, **kwargs)
            if result is not None:
                results.append(result)
            now = time.monotonic()
            spans.append(now - began)
            if now - start + median(spans) / 2 > seconds:
                return results


def end_to_end(runner: Runner, workload: str, seconds: float) -> dict[str, float]:
    cache, fill_s = runner.fill() if workload == "warm-cache" else (None, 0.0)
    jobs = STABLE_SCAN[2] if workload == "stable-scan" else 1
    ops = runner.repeat(workload, seconds, jobs=jobs, cache=cache)
    if not ops:
        raise RuntimeError(f"no {workload} operation finished")
    return {
        "wall_s": median([r["wall_s"] for r in ops]),
        "cpu_s": median([r["cpu_s"] for r in ops]),
        "peak_rss_mib": median([r["peak_rss_kib"] for r in ops]) / 1024,
        "setup_s": median([r["ready_s"] for r in ops]) + fill_s,
    }


def per_layer(runner: Runner, workload: str, seconds: float) -> dict[str, float]:
    # Worker memos and spans are out of reach, so stable-scan is traced at
    # jobs=1; its canonical report does not depend on the job count.
    cache = runner.fill()[0] if workload == "warm-cache" else None
    traced = runner.op(workload, trace=True, cache=cache)
    untraced = runner.repeat(workload, seconds, cache=cache)
    if traced is None or not untraced:
        raise RuntimeError(f"no traced or untraced {workload} operation finished")
    metrics = dict(traced["layers"])
    untraced_wall = median([r["wall_s"] for r in untraced])
    jobs1_wall = speedup = 0.0
    if workload == "stable-scan":
        parallel = runner.op(workload, jobs=STABLE_SCAN[2])
        jobs1_wall = untraced_wall
        speedup = jobs1_wall / parallel["wall_s"] if parallel else 0.0
    metrics["conjectures.scan.jobs1_wall_s"] = jobs1_wall
    metrics["conjectures.scan.speedup"] = speedup
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return metrics


def machine() -> dict:
    def proc_field(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all in turn with metric names prefixed by it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "kroncave" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'kroncave'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    measure, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
    print(f"machine: {json.dumps(machine())}")
    print(f"omitted workloads: {json.dumps(OMITTED)}")
    print("peak_rss_mib is the high-water mark of one process (the child or its "
          "largest worker), not a sum over workers")
    print(f"seed {args.seed} (inputs are pinned; the seed changes nothing)")
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{time.time_ns()}"
        runner = Runner(scratch, time.monotonic() + RUN_LIMIT_S)
        try:
            values = measure(runner, workload, args.seconds)
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for name, unit in units.items():
            print(f"{workload} {name} = {values[name]:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": values[name], "unit": unit}
        print(f"{workload} failed_frac = {runner.failed / runner.attempted:.6g} "
              f"({runner.failed} of {runner.attempted} outputs)")
        attempted += runner.attempted
        failed += runner.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
