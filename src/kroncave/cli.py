"""Command line interface.

Exit codes: 0 for success (including "check passed"), 1 when a check or scan
found violations, 2 for usage or parse errors (an --out path that cannot be
written among them), 3 when an internal invariant check failed (an engine
bug). All numeric output is exact decimal.

The parser is built once per process, by the first `run_command` call, and
reused by every later call; importing this module builds nothing. It holds
no values: each handler looks its engine function up as a module global when
it runs, so a function rebound after the parser was built (a test's patch, a
tracing wrapper) is the one that is called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .characters import character_value
from .characters import dimension as char_dimension
from .closed_forms import reach_count, reduced_hook, reduced_two_row
from .coefficients import (
    kronecker,
    lr_coefficient,
    reduced_kronecker,
    reduced_tensor_decompose,
    tensor_decompose,
)
from .conjectures import (
    SCANS,
    check_dim_log_concavity,
    check_payload,
    check_saturation,
    run_golden_suite,
    scan,
)
from .errors import InvariantViolation, KroncaveError
from .partitions import canonical_key, pad
from .store import CoefficientCache, format_partition, parse_partition_text


def _partition_flag(parser, flag, dest, help_text="partition text, e.g. 3,1 or -"):
    parser.add_argument(flag, dest=dest, type=parse_partition_text, required=True, help=help_text)


def _write(out_path: str, text: str) -> None:
    """Write text to out_path; a path that cannot be written is a usage error."""
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise KroncaveError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text + "\n")
    else:
        print(text)


def _report_exit(report, out_path) -> int:
    _emit(report.to_json(), out_path)
    return 0 if report.passed else 1


def _decomposition_json(product: dict) -> str:
    """A product {nu: coefficient} as JSON, nu in canonical order."""
    return json.dumps(
        {format_partition(p): product[p] for p in sorted(product, key=canonical_key)}, indent=2
    )


# -- handlers -----------------------------------------------------------------


def _cmd_value(args) -> int:
    """Commands that print one number: args.compute(args) computes it."""
    print(args.compute(args))
    return 0


def _cmd_decompose(args) -> int:
    """tensor and redtensor: args.compute(args) computes the product."""
    _emit(_decomposition_json(args.compute(args)), args.out)
    return 0


def _cmd_check(args) -> int:
    payload = (args.lam, args.mu) if args.pairs else args.part
    report = check_payload(args.conjecture, payload)
    return _report_exit(report, args.out)


def _cmd_dim_log_concavity(args) -> int:
    result = check_dim_log_concavity(args.lam, args.mu, args.d)
    _emit(
        json.dumps({"holds": result.holds, "lhs": result.lhs, "rhs": result.rhs}, indent=2),
        args.out,
    )
    return 0 if result.holds else 1


def _cmd_saturation(args) -> int:
    values = check_saturation(args.lam, args.mu, args.nu, args.k_max, args.mode)
    _emit(json.dumps([[k, nonzero] for k, nonzero in values], indent=2), args.out)
    return 0


def _cmd_scan(args) -> int:
    cache = CoefficientCache(args.cache) if args.cache is not None else None
    report = scan(args.conjecture, args.max_boxes, jobs=args.jobs, chain_n=args.n, cache=cache)
    return _report_exit(report, args.out)


def _cmd_verify(args) -> int:
    # Recompute every value: a stored record must never decide a golden check.
    results = run_golden_suite(stretch=args.stretch)
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name} ({check.millis} ms): {check.detail}")
    if args.out:
        payload = {
            "suite": args.suite,
            "passed": all(c.passed for c in results),
            "results": [
                {"name": c.name, "passed": c.passed, "detail": c.detail, "millis": c.millis}
                for c in results
            ],
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0 if all(c.passed for c in results) else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kroncave",
        description="Exact Kronecker, reduced Kronecker, and Littlewood-Richardson coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def triple(p):
        _partition_flag(p, "--lambda", "lam")
        _partition_flag(p, "--mu", "mu")
        _partition_flag(p, "--nu", "nu")

    # Each compute lambda names its engine function, so the call reads the
    # module global at run time, never a function captured at build time.
    for name, compute, help_text in (
        ("kron", lambda a: kronecker(a.lam, a.mu, a.nu),
         "Kronecker coefficient of three same-size partitions"),
        ("lr", lambda a: lr_coefficient(a.lam, a.mu, a.nu), "Littlewood-Richardson coefficient"),
        ("redkron", lambda a: reduced_kronecker(a.lam, a.mu, a.nu),
         "reduced (stable) Kronecker coefficient"),
    ):
        p = sub.add_parser(name, help=help_text)
        triple(p)
        p.set_defaults(handler=_cmd_value, compute=compute)

    for name, compute, help_text in (
        ("tensor", lambda a: tensor_decompose(a.lam, a.mu),
         "full S_n tensor product decomposition"),
        ("redtensor", lambda a: reduced_tensor_decompose(a.lam, a.mu),
         "stable product of two classes"),
    ):
        p = sub.add_parser(name, help=help_text)
        _partition_flag(p, "--lambda", "lam")
        _partition_flag(p, "--mu", "mu")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_decompose, compute=compute)

    p = sub.add_parser("char", help="irreducible character value on a cycle type")
    _partition_flag(p, "--lambda", "lam")
    _partition_flag(p, "--rho", "rho", help_text="cycle type as partition text")
    p.set_defaults(handler=_cmd_value, compute=lambda a: character_value(a.lam, a.rho))

    p = sub.add_parser("dim", help="dimension (standard tableau count), optionally padded")
    _partition_flag(p, "--lambda", "lam")
    p.add_argument("--d", type=int, default=None, help="pad to a partition of d first")
    p.set_defaults(
        handler=_cmd_value,
        compute=lambda a: char_dimension(pad(a.lam, a.d) if a.d is not None else a.lam),
    )

    p = sub.add_parser("closed-form", help="closed-form special family values")
    forms = p.add_subparsers(dest="form", required=True)
    g = forms.add_parser("gamma", help="rectangle reach count")
    for flag in ("--a", "--b", "--c", "--d", "--x", "--y"):
        g.add_argument(flag, dest=flag[2:], type=int, required=True)
    g.set_defaults(handler=_cmd_value, compute=lambda a: reach_count(a.a, a.b, a.c, a.d, a.x, a.y))
    for form, compute, help_text in (
        ("two-row", lambda a: reduced_two_row(a.j, a.k, a.nu), "two one-row shapes"),
        ("hook", lambda a: reduced_hook(a.j, a.k, a.nu), "two one-column shapes"),
    ):
        p = forms.add_parser(form, help=help_text)
        p.add_argument("--j", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        _partition_flag(p, "--nu", "nu")
        p.set_defaults(handler=_cmd_value, compute=compute)

    # check and scan get one subcommand per SCANS row. A row whose payloads
    # are n-tuples takes --part in check and --n in scan; a scan takes --cache
    # only where its check compares stable products.
    p = sub.add_parser("check", help="run one conjecture check on a single input")
    checks = p.add_subparsers(dest="conjecture", required=True)
    p = sub.add_parser("scan", help="scan a conjecture over all pairs within a box budget")
    scans = p.add_subparsers(dest="conjecture", required=True)
    for name, row in SCANS.items():
        c = checks.add_parser(name.replace("_", "-"))
        if row.pairs:
            _partition_flag(c, "--lambda", "lam")
            _partition_flag(c, "--mu", "mu")
        else:
            c.add_argument("--part", action="append", type=parse_partition_text, required=True,
                           help="repeatable partition text")
        c.add_argument("--out", default=None)
        c.set_defaults(handler=_cmd_check, pairs=row.pairs)
        s = scans.add_parser(name.replace("_", "-"))
        s.add_argument("--max-boxes", dest="max_boxes", type=int, required=True)
        s.add_argument("--jobs", type=int, default=1)
        if not row.pairs:
            s.add_argument("--n", type=int, help="tuple length")
        if row.stable:
            s.add_argument("--cache",
                           help="JSONL file of stable products to read and append")
        s.add_argument("--out", default=None)
        s.set_defaults(handler=_cmd_scan, n=3, cache=None)
    c = checks.add_parser("dim-log-concavity")
    _partition_flag(c, "--lambda", "lam")
    _partition_flag(c, "--mu", "mu")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(handler=_cmd_dim_log_concavity)
    c = checks.add_parser("saturation")
    _partition_flag(c, "--lambda", "lam")
    _partition_flag(c, "--mu", "mu")
    _partition_flag(c, "--nu", "nu")
    c.add_argument("--k-max", dest="k_max", type=int, required=True)
    c.add_argument("--mode", choices=("kronecker", "reduced"), default="reduced")
    c.add_argument("--out", default=None)
    c.set_defaults(handler=_cmd_saturation)

    p = sub.add_parser("verify", help="run a named golden verification suite")
    p.add_argument("suite", choices=("paper",))
    p.add_argument("--stretch", action="store_true", help="include the expensive scaled probe")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


_PARSER = None


def run_command(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (KroncaveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; send the interpreter's final flush to devnull
        # so no second error reaches stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
