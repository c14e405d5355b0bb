"""The benchmark's workloads: the qsearch invocations of one pass, and the
checks on their outputs.

A pass is a fixed list of invocations run one after another, so the load
is a closed loop with one client.  Invocations with fixed inputs are
checked against the exit code and stdout digest frozen in
``expected.json``; invocations whose inputs come from the workload seed get
semantic checks instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).with_name("expected.json")
ADVERSARY_SCRIPT = "scripts/adversary_vs_searchers.py"
CHILD_TIMEOUT_S = 120.0


def npoints(n: int, q: int) -> int:
    """Number of points of PG(n-1, q)."""
    return (q**n - 1) // (q - 1)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A semantic check returns None when the output is right, else the reason.
Check = Callable[[int, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One qsearch call: CLI arguments, or a script path and its arguments."""

    argv: tuple[str, ...]
    work: int = 0  # games or points this call adds to the pass
    check: Check | None = None  # None: compare with the frozen digest
    files: tuple[str, ...] = ()  # written files whose digest is frozen too

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def is_script(self) -> bool:
        return self.argv[0].endswith(".py")

    def command(self) -> list[str]:
        if self.is_script:
            return [sys.executable, str(ROOT / self.argv[0]), *self.argv[1:]]
        return [sys.executable, "-m", "qsearch.cli", *self.argv]


@dataclass(frozen=True)
class Result:
    label: str
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    error: str | None  # why the output is wrong, None when it is right


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's source on the path.
    Bytecode caching is on even where the caller turned it off, as for an
    installed package, so a child does not recompile the package on every
    start."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs invocations in a work directory and checks their outputs
    against the frozen expectations or their semantic checks."""

    def __init__(self, workdir: Path, spawner, expected: dict | None = None):
        self.workdir = workdir
        self.spawner = spawner
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, bytes]:
        """Run one child to completion: exit code, wall seconds from spawn
        to reap, its own peak RSS in MB from os.wait4, and its stdout."""
        out = self.workdir / ".stdout"
        code, wall, rss_kb = self.spawner.run(
            cmd, self.workdir, child_env(), out, self.workdir / ".stderr", CHILD_TIMEOUT_S
        )
        return code, wall, rss_kb / 1024.0, out.read_bytes()

    def run(self, inv: Invocation) -> Result:
        code, wall, rss, out = self.spawn(inv.command())
        return Result(inv.label, code, wall, rss, out, self.check(inv, code, out))

    def check(self, inv: Invocation, exit_code: int, stdout: bytes) -> str | None:
        if inv.check is not None:
            try:
                return inv.check(exit_code, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unreadable report: {exc!r}"
        want = self.expected.get(inv.label)
        if want is None:
            return "no frozen expectation"
        if exit_code != want["exit"]:
            return f"exit {exit_code}, expected {want['exit']}"
        if digest(stdout) != want["stdout"]:
            return "stdout differs from the frozen digest"
        for name, sha in want.get("files", {}).items():
            path = self.workdir / name
            if not path.exists() or digest(path.read_bytes()) != sha:
                return f"{name} differs from the frozen digest"
        return None


# ---------------------------------------------------------------------------
# semantic checks for seeded inputs
# ---------------------------------------------------------------------------


def _field_mismatch(report: dict, want: dict) -> str | None:
    bad = {k: report.get(k) for k, v in want.items() if report.get(k) != v}
    return f"fields differ from {want}: {bad}" if bad else None


def check_random_construct(n: int, q: int, seed: int) -> Check:
    want = {
        "command": "construct",
        "n": n,
        "q": q,
        "method": "random",
        "seed": seed,
        "size": 2 * n * q,
        "bound": 2 * n * q,
        "separating": True,
        "out": None,
        "ok": True,
    }

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        report = json.loads(stdout)
        attempts = report.get("attempts")
        if not isinstance(attempts, int) or attempts < 1:
            return f"bad attempt count {attempts!r}"
        return _field_mismatch(report, want)

    return check


def check_broken_verify(file: str, n: int, q: int, queries: list) -> Check:
    """The system misses one query, so verify must exit 1 and name a pair
    that every remaining query answers alike."""
    want = {
        "command": "verify",
        "file": file,
        "n": n,
        "q": q,
        "size": len(queries),
        "separating": False,
    }

    def check(exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 1:
            return f"exit {exit_code}, expected 1"
        report = json.loads(stdout)
        bad = _field_mismatch(report, want)
        if bad:
            return bad
        u, v = (tuple(p) for p in report["witness"])
        for p in (u, v):
            if len(p) != n or any(not 0 <= c < q for c in p):
                return f"witness point {p} is not in GF({q})^{n}"
            if next((c for c in p if c), None) != 1:
                return f"witness point {p} is not canonical"
        if u == v:
            return "witness names one point twice"
        for s in queries:
            if s.contains(u) != s.contains(v):
                return f"witness {u} {v} is separated by {s.literal()}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    unit: str  # what `work` counts: games or points
    largest: tuple[int, int]  # (n, q) of the biggest instance, built in set-up
    invocations: list[Invocation]

    def work_per_pass(self) -> int:
        return sum(inv.work for inv in self.invocations)


def adaptive_sweep(seed: int, runner: Runner) -> Workload:
    """Searcher-vs-fixed-oracle sweeps over every hidden point; the inputs
    are fixed, so the seed is unused."""
    invs = [
        Invocation(
            ("adaptive", "--n", str(n), "--q", str(q), "--strategy", s)
            + ("--oracle", "fixed:all"),
            work=npoints(n, q),
        )
        for n, q, s in [
            (5, 5, "inductive"),
            (5, 5, "two-round"),
            (4, 9, "inductive"),
            (4, 9, "two-round"),
            (3, 9, "plane"),
        ]
    ]
    return Workload("adaptive-sweep", "games", (4, 9), invs)


BUILT_FILE = "sys_n5q9.txt"
BROKEN_FILE = "broken_n5q9.txt"


def separating_build(seed: int, runner: Runner) -> Workload:
    """Large separating-system constructions and checks, then exhaustive
    cross-checks, the adversary roster and bounds on small spaces.

    The seed picks the random-construction seeds and the query dropped from
    the explicit (5, 9) system to make the broken file.  Set-up writes that
    file from the system the program itself builds; dropping any one query
    of the explicit system breaks separation.  The small-space calls have
    fixed inputs.
    """
    from qsearch.projspace import Subspace

    rng = random.Random(f"separating-build:{seed}")
    build = Invocation(
        ("construct", "--n", "5", "--q", "9", "--method", "explicit", "--out", BUILT_FILE),
        work=npoints(5, 9),
        files=(BUILT_FILE,),
    )
    result = runner.run(build)
    if result.error:
        raise RuntimeError(f"set-up construct failed: {result.error}")
    head, *lines = (runner.workdir / BUILT_FILE).read_text().splitlines()
    drop = rng.randrange(len(lines))
    kept = lines[:drop] + lines[drop + 1 :]
    q, n, _ = head.split()
    broken = "\n".join([f"{q} {n} {len(kept)}", *kept]) + "\n"
    (runner.workdir / BROKEN_FILE).write_text(broken)
    queries = [Subspace.parse(line) for line in kept]
    random_seeds = [rng.randrange(10**6) for _ in range(3)]
    invs = [
        Invocation(
            ("construct", "--n", "6", "--q", "7", "--method", "explicit"),
            work=npoints(6, 7),
        ),
        build,
        Invocation(("verify", BUILT_FILE), work=npoints(5, 9)),
        Invocation(
            ("verify", BROKEN_FILE),
            work=npoints(5, 9),
            check=check_broken_verify(BROKEN_FILE, 5, 9, queries),
        ),
    ] + [
        Invocation(
            ("construct", "--n", "5", "--q", "5", "--method", "random", "--seed", str(s)),
            work=npoints(5, 5),
            check=check_random_construct(5, 5, s),
        )
        for s in random_seeds
    ] + [
        Invocation(("oracle", "claim-count", "--n", str(n), "--q", str(q)))
        for n, q in [(3, 8), (4, 3), (5, 2)]
    ] + [
        Invocation(("oracle", "brute-min", "--n", "3", "--q", "3")),
        Invocation(("oracle", "brute-min", "--n", "3", "--q", "3", "--all-dims")),
        Invocation(("oracle", "brute-min", "--n", "4", "--q", "2")),
        Invocation((ADVERSARY_SCRIPT,)),
        Invocation(("bounds", "--n", "3", "--q", "9", "--json")),
        Invocation(("bounds", "--n", "3", "--q", "9", "--csv")),
    ]
    return Workload("separating-build", "points", (6, 7), invs)


WORKLOADS = {
    "adaptive-sweep": adaptive_sweep,
    "separating-build": separating_build,
}


# ---------------------------------------------------------------------------
# self-test: a corrupted report must count as a failure
# ---------------------------------------------------------------------------


def _corruptions(inv: Invocation, stdout: bytes) -> list[bytes]:
    """Damaged copies of one report.  A frozen digest must catch any flipped
    byte; a semantic check must catch each verdict negated and a witness
    point swapped for a point the queries separate from its partner."""
    if inv.check is None:
        flipped = bytearray(stdout)
        flipped[len(flipped) // 2] ^= 0x01
        return [bytes(flipped)]
    report = json.loads(stdout)
    out = [
        json.dumps({**report, key: not report[key]}).encode()
        for key in ("ok", "separating")
        if isinstance(report.get(key), bool)
    ]
    if report.get("witness"):
        u, v = report["witness"]
        units = [[int(j == i) for j in range(len(u))] for i in range(len(u))]
        w = next(p for p in units if p not in (u, v))
        out.append(json.dumps({**report, "witness": [u, w]}).encode())
    return out


def self_test(workload: Workload, results: list[Result], runner: Runner) -> list[str]:
    """Re-check corrupted copies of one good result per invocation; return
    the corruptions the checks let through (empty when all were caught)."""
    by_label = {inv.label: inv for inv in workload.invocations}
    missed = []
    seen = set()
    for r in results:
        if r.error is not None or r.label in seen:
            continue
        seen.add(r.label)
        inv = by_label[r.label]
        for bad in _corruptions(inv, r.stdout):
            if runner.check(inv, r.exit_code, bad) is None:
                missed.append(r.label)
    return missed
