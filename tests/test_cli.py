import argparse
import hashlib
import importlib
import json
import logging
import os
import re
import subprocess
import sys

import pytest

import kroncave
from kroncave import cli, coefficients
from kroncave.cli import build_parser, run_command
from kroncave.coefficients import clear_caches
from kroncave.conjectures import SCANS
from kroncave.errors import InvariantViolation
from kroncave.store import ENGINE_VERSION


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    """Run each test in its own empty directory, so no test writes into the checkout."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(report_text):
    return re.sub(r',\n  "elapsedMillis": \d+', "", report_text)


class TestCoefficientCommands:
    def test_kron(self, capsys):
        code, out, _ = run(capsys, "kron", "--lambda", "2,2", "--mu", "2,2", "--nu", "2,2")
        assert code == 0 and out.strip() == "1"

    def test_lr_golden(self, capsys):
        code, out, _ = run(
            capsys, "lr", "--lambda", "6,4,2", "--mu", "4,2,2", "--nu", "8,6,4,2"
        )
        assert code == 0 and out.strip() == "6"

    def test_tensor_json(self, capsys):
        code, out, _ = run(capsys, "tensor", "--lambda", "1,1", "--mu", "1,1")
        assert code == 0
        assert json.loads(out) == {"2": 1}

    def test_redtensor_json(self, capsys):
        code, out, _ = run(capsys, "redtensor", "--lambda", "1", "--mu", "1")
        assert code == 0
        assert json.loads(out) == {"-": 1, "1": 1, "1,1": 1, "2": 1}

    def test_char(self, capsys):
        code, out, _ = run(capsys, "char", "--lambda", "1,1", "--rho", "2")
        assert code == 0 and out.strip() == "-1"

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "--lambda", "3,2,1")
        assert code == 0 and out.strip() == "16"

    def test_dim_padded(self, capsys):
        code, out, _ = run(capsys, "dim", "--lambda", "1", "--d", "6")
        assert code == 0 and out.strip() == "5"


class TestClosedFormCommands:
    def test_gamma(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "gamma",
            "--a", "2", "--b", "2", "--c", "1", "--d", "2", "--x", "4", "--y", "2",
        )
        assert code == 0 and out.strip() == "4"

    def test_two_row(self, capsys):
        code, out, _ = run(capsys, "closed-form", "two-row", "--j", "1", "--k", "1", "--nu", "1")
        assert code == 0 and out.strip() == "1"

    def test_hook(self, capsys):
        code, out, _ = run(capsys, "closed-form", "hook", "--j", "8", "--k", "8", "--nu", "3,3")
        assert code == 0 and out.strip() == "0"


class TestCheckAndScan:
    def test_check_pass_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "midpoint-reduced", "--lambda", "3,1", "--mu", "1,1"
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_check_violations_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "midpoint-kronecker", "--lambda", "4,4", "--mu", "2,2,2,2"
        )
        assert code == 1
        assert json.loads(out)["violations"]

    @pytest.mark.parametrize(
        "conjecture, lam, mu, code",
        [
            ("midpoint-reduced", "3,1", "1,1", 0),
            ("midpoint-kronecker", "4,4", "2,2,2,2", 1),
            ("sort", "2,1", "1,1", 0),
            ("sort", "1,1", "2", 1),
            ("schur-lr", "3,1", "1,1", 0),
        ],
    )
    def test_check_pair(self, capsys, conjecture, lam, mu, code):
        got, out, _ = run(capsys, "check", conjecture, "--lambda", lam, "--mu", mu)
        report = json.loads(out)
        assert got == code and bool(report["violations"]) == bool(code)
        assert report["subject"] == f"{conjecture} lambda={lam} mu={mu}"

    def test_check_dim_log_concavity(self, capsys):
        code, out, _ = run(
            capsys, "check", "dim-log-concavity", "--lambda", "3,1", "--mu", "1,1", "--d", "8"
        )
        assert code == 0 and json.loads(out)["holds"] is True

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_check_saturation_needs_a_positive_k_max(self, capsys, k_max):
        code, out, err = run(
            capsys, "check", "saturation",
            "--lambda", "1", "--mu", "1", "--nu", "1", "--k-max", k_max,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_check_saturation(self, capsys):
        code, out, _ = run(
            capsys, "check", "saturation",
            "--lambda", "1,1", "--mu", "1,1", "--nu", "1,1",
            "--k-max", "2", "--mode", "kronecker",
        )
        assert code == 0
        assert json.loads(out) == [[1, False], [2, True]]

    def test_check_chain(self, capsys):
        code, out, _ = run(
            capsys, "check", "chain", "--part", "1", "--part", "1,1", "--part", "1,1,1"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["midpoint-reduced", "--lambda", "3,1", "--mu", "1,1"], 0,
             "1e90f5fc7bd2cc754ec962f6f044ec6cd78e08761a57b2f9b9002e8a79fd41bc"),
            (["midpoint-kronecker", "--lambda", "4,4", "--mu", "2,2,2,2"], 1,
             "3048078dc5c2aafc1dee3e1d11ae24c40bd11b4646ed93c0ca806a5f7269ca10"),
            (["sort", "--lambda", "1,1", "--mu", "2"], 1,
             "d5d25cbafd544f3f1e6a6b6fceea89f4f89ed660fec2bd3bff794b40fecb4b2f"),
            (["chain", "--part", "1", "--part", "1,1", "--part", "2"], 1,
             "edad163b2132c478e10003746ca40b0da81042e4bec602ef99ba75bddef955ff"),
            (["schur-lr", "--lambda", "3,1", "--mu", "1,1"], 0,
             "ff387a6de84e95bf4101fa9a1e6945e5b0c86c99f6551f1b680b9ba4e1d9910c"),
        ],
    )
    def test_check_output_bytes(self, capsys, argv, code, digest):
        """The printed report of one check per scan name, timing removed, is pinned."""
        got, out, _ = run(capsys, "check", *argv)
        out = without_timing(out)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_scan_and_check_names_come_from_the_table(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        scan_names = next(a for a in commands["scan"]._actions if a.dest == "conjecture").choices
        checks = next(a for a in commands["check"]._actions if a.dest == "conjecture").choices
        table = {name.replace("_", "-") for name in SCANS}
        assert set(scan_names) == table
        assert set(checks) - {"dim-log-concavity", "saturation"} == table

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_scan_chain_needs_at_least_one_part(self, capsys, n):
        code, out, err = run(capsys, "scan", "chain", "--max-boxes", "2", "--n", n)
        assert code == 2 and out == ""
        assert err == "error: need at least one partition\n"

    @pytest.mark.parametrize("name", ["midpoint-reduced", "midpoint-kronecker", "sort", "schur-lr"])
    def test_only_chain_takes_n(self, capsys, name):
        code, out, err = run(capsys, "scan", name, "--max-boxes", "2", "--n", "0")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --n 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("midpoint-reduced", "--max-boxes", "-3"),
            ("sort", "--max-boxes", "2", "--jobs", "-4"),
            ("sort", "--max-boxes", "2", "--jobs", "0"),
        ],
    )
    def test_scan_bad_budget_or_jobs_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "scan", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_scan_long_chain_of_empty_parts(self, capsys, tmp_path):
        # 1,199 or 1,200 of the 1,200 parts are empty; the scan must not
        # recurse once per part.
        out_path = tmp_path / "chain.json"
        code, out, _ = run(
            capsys, "scan", "chain", "--max-boxes", "1", "--n", "1200", "--out", str(out_path)
        )
        assert code in (0, 1) and out == ""
        assert json.loads(out_path.read_text())["pairsScanned"] == 2

    def test_scan_writes_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "scan", "midpoint-reduced", "--max-boxes", "5",
            "--cache", str(tmp_path / "c.jsonl"), "--out", str(out_path),
        )
        assert code == 0 and out == ""
        data = json.loads(out_path.read_text())
        assert data["violations"] == [] and data["pairsScanned"] > 0

    def test_scan_with_jobs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "scan", "schur-lr", "--max-boxes", "5", "--jobs", "2",
        )
        assert code == 0

    def test_verify_paper(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", "paper", "--out", str(out_path))
        assert code == 0
        assert out.count("[PASS]") == 7 and "[FAIL]" not in out
        data = json.loads(out_path.read_text())
        assert data["passed"] is True and len(data["results"]) == 7

    def test_verify_paper_stretch(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--stretch")
        assert code == 0
        assert out.count("[PASS]") == 8
        assert "scale 2 gives 80" in out


def cache_line(kind, lam, mu, nu, value):
    return json.dumps(
        {"kind": kind, "lambda": lam, "mu": mu, "nu": nu,
         "value": value, "engineVersion": ENGINE_VERSION}
    )


def redkron_line(value):
    return cache_line("redkron", "1", "1", "1", value)


def product_line(product, lam="1", mu="3"):
    return json.dumps(
        {"kind": "redtensor", "lambda": lam, "mu": mu, "product": product,
         "engineVersion": ENGINE_VERSION}
    )


# The true [1]*[3], and a wrong one with the same dimension sum at n = 8:
# each gives 196 = f^(7,1) f^(5,3), so only the conflict rule keeps the
# wrong one out.
PRODUCT_1_3 = {"2": "1", "3": "1", "2,1": "1", "4": "1", "3,1": "1"}
CANCELLING_1_3 = {"-": "6", "3": "2", "2,1": "1", "3,1": "1"}


def planted_lines(products):
    """A [1]*[3] record for each product, in order."""
    return "".join(product_line(product) + "\n" for product in products)


def cold_scan(capsys, boxes, *flags):
    """Exit code and report of a cold midpoint-reduced scan, timing removed."""
    clear_caches()
    code, out, _ = run(capsys, "scan", "midpoint-reduced", "--max-boxes", str(boxes), *flags)
    return code, without_timing(out)


class TestUntrustedCache:
    """Corrupt, wrong and conflicting records never decide an answer.

    Single-input commands take no cache, so these records are planted for
    midpoint-reduced scans. [1]*[3] is the smaller side of the pair (1),(3)
    in the 4-box scan, against [2]*[2], whose coefficients at () and (3) are
    1. So trusting a [1]*[3] record with a larger coefficient there would add
    a violation.
    """

    @pytest.mark.parametrize(
        "values",
        [
            [{**PRODUCT_1_3, "3": "-4"}],
            [{**PRODUCT_1_3, "3": "1_0"}],
            [CANCELLING_1_3, PRODUCT_1_3],
            [PRODUCT_1_3, CANCELLING_1_3],
        ],
    )
    def test_redkron_prints_true_value(self, capsys, tmp_path, values):
        path = tmp_path / "c.jsonl"
        path.write_text(planted_lines(values))
        expected = cold_scan(capsys, 4)
        assert expected[0] == 0
        assert cold_scan(capsys, 4, "--cache", str(path)) == expected

    def test_well_formed_wrong_record_changes_nothing(self, capsys, tmp_path):
        """The true [1]*[1] has (2) with coefficient 1, so a record without it
        would make a violation if the scan trusted it."""
        path = tmp_path / "c.jsonl"
        path.write_text(product_line({"-": "1", "1": "1", "1,1": "1"}, mu="1") + "\n")
        assert cold_scan(capsys, 2, "--cache", str(path)) == cold_scan(capsys, 2)

    def test_well_formed_wrong_lower_degree_record_changes_nothing(
        self, capsys, tmp_path, caplog
    ):
        """The true coefficient of (3) in [1]*[3] is 1, so a planted 2 makes the
        violation 1/3/3 (lhs 1, rhs 2) if the scan trusts it. The record fails
        the dimension identity, so the load skips it and names its line."""
        path = tmp_path / "c.jsonl"
        path.write_text(product_line({**PRODUCT_1_3, "3": "2"}) + "\n")
        expected = cold_scan(capsys, 4)
        with caplog.at_level(logging.WARNING):
            assert cold_scan(capsys, 4, "--cache", str(path)) == expected
        assert expected[0] == 0
        assert [r.message.split(": ")[0] for r in caplog.records] == [f"{path}:1"]
        assert "fails the dimension identity" in caplog.records[0].message

    def test_redkron_skips_non_string_partition_field(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.loads(product_line(PRODUCT_1_3))
        line["lambda"] = 5
        path.write_text(json.dumps(line) + "\n")
        assert cold_scan(capsys, 4, "--cache", str(path)) == cold_scan(capsys, 4)

    def test_verify_paper_never_reads_the_cache(self, capsys, tmp_path, monkeypatch):
        """A well-formed wrong golden value in a planted cache cannot fail verify."""
        path = tmp_path / "kroncave-cache.jsonl"
        path.write_text(json.dumps(
            {"kind": "redkron", "lambda": "4,2,2", "mu": "6,4,2", "nu": "8,6,4,2",
             "value": "5", "engineVersion": ENGINE_VERSION}
        ) + "\n")
        before = path.read_text()
        monkeypatch.setenv("KRONCAVE_CACHE", str(path))
        clear_caches()
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 0 and "[FAIL]" not in out
        assert path.read_text() == before
        code, _, _ = run(capsys, "verify", "paper", "--cache", str(path))
        assert code == 2

    def test_redtensor_ignores_negative_value(self, capsys, tmp_path):
        """Scan workers, which expand the stable products, skip a negative record too."""
        path = tmp_path / "c.jsonl"
        path.write_text(planted_lines([{**PRODUCT_1_3, "3": "-4"}]))
        expected = cold_scan(capsys, 4, "--jobs", "2")
        assert cold_scan(capsys, 4, "--jobs", "2", "--cache", str(path)) == expected


# Records of the kinds that older files hold, each with a wrong value of 9;
# every true value is 1.
OLD_KIND_RECORDS = {"kron": ("2,1", "2,1", "3"), "lr": ("2,1", "1", "2,2")}


@pytest.fixture
def old_kinds_file(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        "".join(cache_line(kind, *triple, "9") + "\n" for kind, triple in OLD_KIND_RECORDS.items())
    )
    return path


def triple_flags(kind):
    lam, mu, nu = OLD_KIND_RECORDS[kind]
    return (kind, "--lambda", lam, "--mu", mu, "--nu", nu)


class TestOnlyReducedValuesAreCached:
    """kron and lr never read a cache, so a planted record cannot decide them."""

    @pytest.mark.parametrize("kind", OLD_KIND_RECORDS)
    @pytest.mark.parametrize(
        "flags", [("--cache-all", "--cache"), ("--cache",), ("--cache-all",)],
        ids=" ".join,
    )
    def test_cache_flags_are_usage_errors(self, capsys, old_kinds_file, kind, flags):
        argv = [*triple_flags(kind), *flags]
        if "--cache" in flags:
            argv.append(str(old_kinds_file))
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("kind", OLD_KIND_RECORDS)
    def test_env_cache_cannot_decide_the_value(self, capsys, old_kinds_file, monkeypatch, kind):
        monkeypatch.setenv("KRONCAVE_CACHE", str(old_kinds_file))
        before = old_kinds_file.read_text()
        code, out, _ = run(capsys, *triple_flags(kind))
        assert code == 0 and out.strip() == "1"
        assert old_kinds_file.read_text() == before

    def test_old_kind_lines_are_skipped(self, capsys, old_kinds_file, monkeypatch, caplog):
        """Per-triple redkron lines are an old kind too; a product record answers."""
        with old_kinds_file.open("a") as fh:
            fh.write(redkron_line("1") + "\n")
            fh.write(product_line(PRODUCT_1_3) + "\n")
        expected = cold_scan(capsys, 4)
        computed = []
        compute = coefficients.kronecker_sequence

        def recorded(lam, mu, nu, d_values):
            computed.append((lam, mu, nu))
            return compute(lam, mu, nu, d_values)

        monkeypatch.setattr(coefficients, "kronecker_sequence", recorded)
        with caplog.at_level(logging.WARNING):
            assert cold_scan(capsys, 4, "--cache", str(old_kinds_file)) == expected
        assert sum("unknown kind" in r.message for r in caplog.records) == 3
        assert computed  # the product record answered [1]*[3]
        assert [t for t in computed if {t[0], t[1]} == {(1,), (3,)}] == []

    def test_scan_report_ignores_old_kind_lines(self, capsys, old_kinds_file, tmp_path):
        with old_kinds_file.open("a") as fh:
            fh.write(redkron_line("1") + "\n")
        reports = []
        for path in (old_kinds_file, tmp_path / "new.jsonl"):
            clear_caches()
            code, out, _ = run(
                capsys, "scan", "midpoint-reduced", "--max-boxes", "4", "--cache", str(path)
            )
            report = json.loads(out)
            report.pop("elapsedMillis")
            reports.append((code, report))
        assert reports[0] == reports[1] and reports[0][0] == 0


# The commands that took --cache before only scan did.
SINGLE_INPUT_COMMANDS = [
    ("redkron", "--lambda", "1", "--mu", "1", "--nu", "1"),
    ("redtensor", "--lambda", "1", "--mu", "1"),
    ("check", "midpoint-reduced", "--lambda", "3,1", "--mu", "1,1"),
    ("check", "midpoint-kronecker", "--lambda", "4", "--mu", "2,2"),
    ("check", "sort", "--lambda", "2,1", "--mu", "1,1"),
    ("check", "schur-lr", "--lambda", "3,1", "--mu", "1,1"),
    ("check", "chain", "--part", "1", "--part", "1"),
    ("check", "saturation", "--lambda", "1", "--mu", "1", "--nu", "1", "--k-max", "1"),
]


def command_id(argv):
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


def leaf_options(parser, path=()):
    """(subcommand path, option strings) for each parser that runs a handler."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), {s for a in parser._actions for s in a.option_strings}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaf_options(child, (*path, name))


class TestCacheSurface:
    """Only the scans that compare stable products take --cache; nothing takes --cache-all."""

    def test_cache_flags_by_subcommand(self):
        options = dict(leaf_options(build_parser()))
        assert [cmd for cmd, opts in options.items() if "--cache-all" in opts] == []
        assert [cmd for cmd, opts in options.items() if "--cache" in opts] == [
            "scan midpoint-reduced", "scan sort", "scan chain"
        ]

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_each_scan_takes_only_the_flags_its_check_reads(self, name):
        options = dict(leaf_options(build_parser()))
        expected = {"-h", "--help", "--max-boxes", "--jobs", "--out"}
        expected |= {"--n"} if name == "chain" else set()
        expected |= {"--cache"} if SCANS[name].stable else set()
        assert options[f"scan {name.replace('_', '-')}"] == expected

    @pytest.mark.parametrize("name", ["midpoint-kronecker", "schur-lr"])
    def test_fixed_size_scans_reject_cache(self, capsys, tmp_path, name):
        path = tmp_path / "values.jsonl"
        code, out, err = run(capsys, "scan", name, "--max-boxes", "4", "--cache", str(path))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --cache" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", SINGLE_INPUT_COMMANDS, ids=command_id)
    def test_cache_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--cache", "c.jsonl")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --cache c.jsonl" in err


# Wrong records for three triples whose true reduced value is 1, and a
# wrong [1]*[1] that passes the dimension identity (3 f^(3,1) = 9 at n = 4).
# Each command below would print a different result if it trusted them.
PLANTED = (
    cache_line("redkron", "1", "1", "1", "0") + "\n"
    + cache_line("redkron", "1", "1", "2", "0") + "\n"
    + cache_line("redkron", "-", "1,1", "1,1", "5") + "\n"
    + product_line({"1": "3"}, mu="1") + "\n"
)


class TestNoImplicitCache:
    """Without scan --cache, no command reads or writes a cache file."""

    COMMANDS = [
        ("redkron", "--lambda", "1", "--mu", "1", "--nu", "1"),
        ("redtensor", "--lambda", "1", "--mu", "1"),
        ("check", "midpoint-reduced", "--lambda", "2", "--mu", "-"),
        ("check", "sort", "--lambda", "1,1", "--mu", "-"),
        ("check", "chain", "--part", "1,1", "--part", "-"),
        ("check", "saturation", "--lambda", "1", "--mu", "1", "--nu", "1", "--k-max", "1"),
        ("scan", "midpoint-reduced", "--max-boxes", "2"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
    def test_default_run_leaves_directory_empty(self, capsys, tmp_path, argv):
        clear_caches()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["working-dir", "env"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
    def test_planted_file_changes_nothing(self, capsys, tmp_path, monkeypatch, argv, where):
        clear_caches()
        code, out, _ = run(capsys, *argv)
        expected = (code, without_timing(out))
        if where == "env":
            path = tmp_path / "planted.jsonl"
            monkeypatch.setenv("KRONCAVE_CACHE", str(path))
        else:
            path = tmp_path / "kroncave-cache.jsonl"
        path.write_text(PLANTED)
        clear_caches()
        code, out, _ = run(capsys, *argv)
        assert (code, without_timing(out)) == expected
        assert path.read_text() == PLANTED


class TestFixedProtocol:
    """The reduced protocol has no settings, so a cache cannot change an exit code."""

    @pytest.mark.parametrize(
        "argv",
        [*SINGLE_INPUT_COMMANDS, ("scan", "midpoint-reduced", "--max-boxes", "2")],
        ids=command_id,
    )
    def test_cap_flag_exit_code_ignores_cache(self, capsys, tmp_path, argv):
        cache = ("--cache", str(tmp_path / "c.jsonl")) if argv[0] == "scan" else ()
        clear_caches()
        before, _, _ = run(capsys, *argv, "--cap", "3", *cache)
        run(capsys, *argv, *cache)  # fills the cache
        after, _, _ = run(capsys, *argv, "--cap", "3", *cache)
        assert before == after == 2

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "kroncave.cli", "redkron",
             "--lambda", "1", "--mu", "1", "--nu", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    @pytest.mark.parametrize(
        "argv",
        [("char", "--lambda", "1,1", "--rho", "2"), ("verify", "paper")],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        """A reader that has already gone away: exit 1, nothing on stderr."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kroncave.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestErrorHandling:
    def test_bad_partition_text_exits_two(self, capsys):
        code, _, err = run(capsys, "kron", "--lambda", "1,2", "--mu", "2,1", "--nu", "2,1")
        assert code == 2

    def test_size_mismatch_exits_two(self, capsys):
        code, _, err = run(capsys, "kron", "--lambda", "2", "--mu", "1", "--nu", "1")
        assert code == 2 and "error" in err

    def test_not_integral_midpoint_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "midpoint-reduced", "--lambda", "2", "--mu", "1,1")
        assert code == 2 and err.startswith("error: ")

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert run(capsys, "kron", "--lambda", "1")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_invariant_violation_exits_three(self, capsys, monkeypatch):
        def broken(*args):
            raise InvariantViolation("non-integral character sum")

        monkeypatch.setattr("kroncave.cli.kronecker", broken)
        code, _, err = run(capsys, "kron", "--lambda", "1", "--mu", "1", "--nu", "1")
        assert code == 3 and "non-integral character sum" in err

    def test_redtensor_product_failing_the_dimension_identity_exits_three(
        self, capsys, monkeypatch
    ):
        clear_caches()
        original = coefficients.lr_expand

        def wrong(lam, mu):
            product = original(lam, mu)
            product[(2,)] += 1
            return product

        monkeypatch.setattr(coefficients, "lr_expand", wrong)
        code, out, err = run(capsys, "redtensor", "--lambda", "1", "--mu", "1")
        assert (code, out) == (3, "")
        assert err == (
            "internal error: stable product (1,) * (1,): "
            "product fails the dimension identity at n=4\n"
        )


class TestUnwritableOut:
    """A report that cannot be written is a usage error (2), never "violations" (1)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "sort", "--lambda", "1,1", "--mu", "2"),
            ("scan", "midpoint-reduced", "--max-boxes", "4"),
            ("verify", "paper"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_two(self, capsys, tmp_path, argv):
        out_path = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert f"error: cannot write {out_path}: " in err
        assert "Traceback" not in err and not out_path.exists()


# Each command whose handler calls an engine function: the kroncave.cli global
# it calls, its argv, and what it prints when that function returns SENTINEL.
SENTINEL = 987654321
ENGINE_COMMANDS = [
    ("kronecker", ("kron", "--lambda", "1", "--mu", "1", "--nu", "1"), SENTINEL),
    ("lr_coefficient", ("lr", "--lambda", "1", "--mu", "1", "--nu", "2"), SENTINEL),
    ("reduced_kronecker", ("redkron", "--lambda", "1", "--mu", "1", "--nu", "1"), SENTINEL),
    ("tensor_decompose", ("tensor", "--lambda", "1,1", "--mu", "1,1"), {(4, 3): SENTINEL}),
    ("reduced_tensor_decompose", ("redtensor", "--lambda", "1", "--mu", "1"),
     {(4, 3): SENTINEL}),
    ("character_value", ("char", "--lambda", "1,1", "--rho", "2"), SENTINEL),
    ("char_dimension", ("dim", "--lambda", "3,2,1"), SENTINEL),
    ("reach_count", ("closed-form", "gamma", "--a", "2", "--b", "2", "--c", "1", "--d", "2",
                     "--x", "4", "--y", "2"), SENTINEL),
    ("reduced_two_row", ("closed-form", "two-row", "--j", "1", "--k", "1", "--nu", "1"),
     SENTINEL),
    ("reduced_hook", ("closed-form", "hook", "--j", "8", "--k", "8", "--nu", "3,3"), SENTINEL),
]


class TestParserReuse:
    """run_command builds its parser on the first call and reuses it."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        builds = []
        original = cli.build_parser

        def counting():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        assert run(capsys, "dim", "--lambda", "3,2,1") == (0, "16\n", "")
        assert run(capsys, "dim", "--lambda", "1", "--d", "6") == (0, "5\n", "")
        assert len(builds) == 1

    def test_import_builds_no_parser(self, monkeypatch):
        builds = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        # Import a fresh copy; monkeypatch puts the original module back.
        monkeypatch.delitem(sys.modules, "kroncave.cli")
        monkeypatch.setattr(kroncave, "cli", cli)
        fresh = importlib.import_module("kroncave.cli")
        assert fresh is not cli
        assert fresh._PARSER is None and builds == []

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        argv = ("check", "sort", "--lambda", "1,1", "--mu", "2")
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (1, "")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert without_timing(out) == without_timing(out_path.read_text())

    def test_part_lists_do_not_pile_up(self, capsys):
        code, out, _ = run(capsys, "check", "chain", "--part", "1", "--part", "1,1", "--part", "2")
        assert (code, json.loads(out)["subject"]) == (1, "chain n=3 parts=1;1,1;2")
        code, out, _ = run(capsys, "check", "chain", "--part", "2", "--part", "1")
        assert json.loads(out)["subject"] == "chain n=2 parts=2;1"

    def test_scan_defaults_come_back(self, capsys, monkeypatch, tmp_path):
        calls = []
        original = cli.scan

        def recording(conjecture, max_boxes, **kwargs):
            calls.append((conjecture, kwargs["chain_n"], kwargs["cache"] is None))
            return original(conjecture, max_boxes, **kwargs)

        monkeypatch.setattr(cli, "scan", recording)
        cache = str(tmp_path / "cache.jsonl")
        for argv in (
            ("chain", "--max-boxes", "2", "--n", "2"),
            ("chain", "--max-boxes", "2"),
            ("midpoint-reduced", "--max-boxes", "2", "--cache", cache),
            ("midpoint-reduced", "--max-boxes", "2"),
        ):
            assert run(capsys, "scan", *argv)[0] == 0
        assert calls == [
            ("chain", 2, True),
            ("chain", 3, True),
            ("midpoint-reduced", 3, False),
            ("midpoint-reduced", 3, True),
        ]

    @pytest.mark.parametrize(
        "name, argv, result", ENGINE_COMMANDS, ids=[c[0] for c in ENGINE_COMMANDS]
    )
    def test_handlers_call_the_current_engine_function(
        self, capsys, monkeypatch, name, argv, result
    ):
        """A function patched after the parser is built is the one a command calls."""
        code, real, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, name, lambda *args: result)
        code, out, _ = run(capsys, *argv)
        expected = str(SENTINEL) if result == SENTINEL else json.dumps({"4,3": SENTINEL}, indent=2)
        assert (code, out) == (0, expected + "\n")
        assert out != real
