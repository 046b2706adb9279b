"""Every script under demos/ runs to completion against the current package,
and prints exactly the output pinned here by sha256."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import kroncave

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout. Every demo is deterministic; a digest changes
# only when a printed value or the demo's wording does.
STDOUT_SHA256 = {
    "closed_form_families.py": "2ed334ef73acc419bd250595625907fde92111598b2160dee644a7d3701abe88",
    "midpoint_scans.py": "61ac8f53e1ba916221daf47b7d1b9da4b7c609ecec3e33d4dd8b34d24c5b6de5",
    "parity_and_saturation.py": "6e10936ddfe0ab2bf407dbf7b7da5aca6dd9d889236676704bc2b3155a4ab150",
    "stable_ring_tour.py": "74765f38fa0055622ce050de7af3780af0d5a7548307c1cdfeb457b3beecaeab",
    "virtual_square_difference.py": "53680808f60f30c0e90a4f1960936e7f227e43e4b7c62317a93f44aa899b2246",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kroncave.__file__)))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
