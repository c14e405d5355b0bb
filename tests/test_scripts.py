"""The experiment scripts run end to end and reject bad grids with a usage
error, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsearch.gf import PRIMALITY_BOUND

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_adversary_script_tiny_grid():
    got = run_script("adversary_vs_searchers.py", "--q", "2", "3", "--seeds", "2")
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert [ln.split()[0] for ln in lines] == ["q=2", "q=3"]
    assert lines[1].startswith("q=3 floor=5: ") and lines[1].endswith("over 2 seeds")


def test_bounds_script_tiny_grid():
    got = run_script("bounds_table.py", "--n", "3", "--q", "2", "6")
    assert got.returncode == 0, got.stderr
    assert got.stderr == "skipping q=6: not a prime power\n"
    rows = got.stdout.splitlines()
    assert len(rows) > 1 and all(row.startswith("3,2,") for row in rows[1:])


def test_bounds_script_skips_an_order_beyond_the_primality_test():
    got = run_script("bounds_table.py", "--n", "3", "--q", "2", str(PRIMALITY_BOUND))
    assert got.returncode == 0, got.stderr
    assert got.stderr == (
        f"skipping q={PRIMALITY_BOUND}: primality is decided only below {PRIMALITY_BOUND}\n"
    )
    assert len(got.stdout.splitlines()) > 1


def test_bounds_script_skips_an_n_over_the_size_cap():
    got = run_script("bounds_table.py", "--n", "3", "30000000", "--q", "3")
    assert got.returncode == 0, got.stderr
    assert got.stderr == (
        "skipping n=30000000 q=3: n * bits(q) = 60000000 exceeds the cap of 10000000\n"
    )
    rows = got.stdout.splitlines()
    assert len(rows) == 9 and all(row.startswith("3,3,") for row in rows[1:])


@pytest.mark.parametrize(
    "args,message",
    [
        (("--seeds", "0"), "--seeds must be at least 1, got 0"),
        (("--q", "6"), "q=6 is not a prime power"),
        (("--q", "3", "1031"), "q=1031: 1063993 points exceeds the cap of 1000000"),
        (("--q", str(PRIMALITY_BOUND)),
         f"q={PRIMALITY_BOUND}: primality is decided only below {PRIMALITY_BOUND}"),
    ],
)
def test_adversary_script_rejects_bad_grid(args, message):
    got = run_script("adversary_vs_searchers.py", *args)
    assert got.returncode == 2
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert message in got.stderr


@pytest.mark.parametrize(
    "name,args",
    [
        ("adversary_vs_searchers.py", ("--q", "2", "3", "--seeds", "2")),
        ("bounds_table.py", ()),
    ],
)
def test_script_on_a_closed_pipe_ends_without_traceback(name, args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = run_script(name, *args, stdout=write_end)
    finally:
        os.close(write_end)
    assert got.returncode == 1
    assert "Traceback" not in got.stderr
    assert "Exception ignored" not in got.stderr
    assert got.stderr == "error: [Errno 32] Broken pipe\n"
