"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_freeze_spectrum_reproduces_the_fixtures(tmp_path):
    result = _run_script(
        "freeze_spectrum.py", "--ns", "3", "4", "5", "--out-dir", str(tmp_path)
    )
    assert result.returncode == 0, result.stderr
    for n in (3, 4, 5):
        name = f"spectrum_n{n}.json"
        fixture = ROOT / "tests" / "data" / name
        assert (tmp_path / name).read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize(
    "ns, message",
    [
        (["3", "7"], "--ns 7 exceeds the hard maximum 6"),
        (["0"], "--ns 0 is below 1"),
    ],
    ids=["above-cap", "below-one"],
)
def test_freeze_spectrum_refuses_a_bad_n_before_writing(tmp_path, ns, message):
    result = _run_script("freeze_spectrum.py", "--ns", *ns, "--out-dir", str(tmp_path))
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_spectrum_table_runs():
    result = _run_script("spectrum_table.py", "--max-n", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("n=1  total=1  max=1")


def test_spectrum_table_refuses_max_n_above_the_hard_cap():
    result = _run_script("spectrum_table.py", "--max-n", "7")
    assert (result.returncode, result.stdout) == (2, "")
    assert "--max-n 7 exceeds the hard maximum 6" in result.stderr


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_spectrum_table_refuses_max_n_below_one(max_n):
    result = _run_script("spectrum_table.py", "--max-n", max_n)
    assert (result.returncode, result.stdout) == (2, "")
    assert f"--max-n {max_n} is below 1" in result.stderr
