"""Per-layer timings, taken by calling each qsearch module's public
functions directly from this process.

Every row names the end-to-end metric it should move in its comment.  A
timing is the median over repeats; inputs come from the benchmark seed.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

from workloads import SRC, Runner

clock = time.perf_counter_ns

# Rows of the ROADMAP baseline table and the value recorded there, so a run
# shows whether it reproduces them.
ROADMAP_BASELINE = {
    "projspace.rref_us.q7": 53.0,
    "projspace.rref_us.q9": 65.0,
    "projspace.mask_cold_ms.n5q9": 17.0,
    "projspace.mask_cold_ms.n7q5": 146.0,
    "separating.witness_s.n5q9": 0.37,
    "separating.witness_s.n6q7": 2.8,
    "gf.field_build_ms.q729": 500.0,
}


def _median_ns(run, repeats: int) -> float:
    """Median wall time of run() in nanoseconds."""
    samples = []
    for _ in range(repeats):
        t0 = clock()
        run()
        samples.append(clock() - t0)
    return statistics.median(samples)


def _ns_per_call(fn, args: list[tuple], repeats: int = 5) -> float:
    def run():
        for a in args:
            fn(*a)

    return _median_ns(run, repeats) / len(args)


def percentile_tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it (None with fewer than eleven samples), with the sample count."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "tail_pct": None, "tail": None}
    if n >= 11:
        k = n - 11
        out["tail_pct"] = round(100.0 * (k + 1) / n, 2)
        out["tail"] = s[k]
    return out


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------


def gf_rows(rng: random.Random) -> dict[str, float]:
    from qsearch.gf import GF

    F7, F9 = GF(7), GF(9)

    def pairs(q: int, nonzero: bool = True) -> list[tuple[int, int]]:
        lo = 1 if nonzero else 0
        return [(rng.randrange(lo, q), rng.randrange(lo, q)) for _ in range(20000)]

    def units(q: int) -> list[tuple[int]]:
        return [(rng.randrange(1, q),) for _ in range(20000)]

    return {
        # adaptive-sweep games_per_s and separating-build points_per_s
        "gf.mul_ns.q7": _ns_per_call(F7.mul, pairs(7)),
        "gf.mul_ns.q9": _ns_per_call(F9.mul, pairs(9)),
        "gf.add_ns.q9": _ns_per_call(F9.add, pairs(9, False)),
        "gf.sub_ns.q7": _ns_per_call(F7.sub, pairs(7, False)),
        "gf.inv_ns.q9": _ns_per_call(F9.inv, units(9)),
        # setup_s
        "gf.field_build_ms.q8": _median_ns(lambda: GF(8), 21) / 1e6,
        # ROADMAP baseline row; moves no workload
        "gf.field_build_ms.q729": _median_ns(lambda: GF(729), 3) / 1e6,
    }


# ---------------------------------------------------------------------------
# projspace
# ---------------------------------------------------------------------------


def _random_hyperplanes(rng: random.Random, n: int, q: int, count: int) -> list:
    from qsearch.projspace import Subspace

    out = []
    while len(out) < count:
        s = Subspace.span(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(n - 1)])
        if s.k == n - 1 and s not in out:
            out.append(s)
    return out


def projspace_rows(rng: random.Random) -> dict[str, float]:
    from qsearch.gf import field
    from qsearch.projspace import Geometry, geometry, rref

    out = {}
    # adaptive-sweep games_per_s
    for q in (7, 9):
        field(q)
        mats = [
            ([[rng.randrange(q) for _ in range(5)] for _ in range(4)],) for _ in range(200)
        ]
        out[f"projspace.rref_us.q{q}"] = _ns_per_call(lambda m, q=q: rref(q, m), mats) / 1e3
    hyper = _random_hyperplanes(rng, 4, 9, 50)
    vecs = [[rng.randrange(9) for _ in range(4)] for _ in range(20)]
    out["projspace.contains_us.q9"] = (
        _ns_per_call(lambda s, v: s.contains(v), [(s, v) for s in hyper for v in vecs]) / 1e3
    )
    # separating-build points_per_s: first mask of a subspace on a built geometry
    for n, q, count in ((5, 9, 7), (6, 7, 7), (7, 5, 3)):
        geom = Geometry(n, q)
        times = []
        for s in _random_hyperplanes(rng, n, q, count):
            t0 = clock()
            geom.mask(s)
            times.append(clock() - t0)
        out[f"projspace.mask_cold_ms.n{n}q{q}"] = statistics.median(times) / 1e6
    # separating-build wall_s: a cached mask, as claim-count asks for it
    geom = geometry(3, 8)
    lines = geom.subspaces(2)
    for s in lines:
        geom.mask(s)
    out["projspace.mask_hit_ns"] = _ns_per_call(geom.mask, [(s,) for s in lines] * 100)
    # setup_s
    out["projspace.geometry_build_ms.n6q7"] = _median_ns(lambda: Geometry(6, 7), 5) / 1e6
    return out


# ---------------------------------------------------------------------------
# separating
# ---------------------------------------------------------------------------


def separating_rows(rng: random.Random, workdir: Path) -> tuple[dict[str, float], int]:
    """Rows, and the number of rows whose result was wrong."""
    from qsearch.projspace import geometry
    from qsearch.separating import (
        QuerySet,
        brute_force_minimum,
        count_unseparated_bruteforce,
        explicit_construction,
        random_construction_trace,
        separating_witness,
        unseparated_pencil_count,
    )

    out, wrong = {}, 0
    # separating-build points_per_s, masks warm
    for n, q, repeats in ((5, 9, 3), (6, 7, 2)):
        qs = explicit_construction(n, q)
        geom = geometry(n, q)
        for s in qs:
            geom.mask(s)
        found = []
        out[f"separating.witness_s.n{n}q{q}"] = (
            _median_ns(lambda: found.append(separating_witness(qs)), repeats) / 1e9
        )
        wrong += any(w is not None for w in found)
    out["separating.explicit_ms.n6q7"] = (
        _median_ns(lambda: explicit_construction(6, 7), 5) / 1e6
    )
    path = workdir / "layers_n6q7.txt"
    explicit_construction(6, 7).save(path)
    out["separating.load_ms.n6q7"] = _median_ns(lambda: QuerySet.load(path), 5) / 1e6
    # successes over attempts of the random construction, with its base
    seeds = [rng.randrange(10**6) for _ in range(10)]
    attempts = sum(random_construction_trace(5, 5, s)[1] for s in seeds)
    out["separating.random_success_ratio"] = len(seeds) / attempts
    out["separating.random_attempts"] = attempts
    # separating-build wall_s, through its claim-count and brute-min calls
    sizes = []
    out["separating.brute_min_ms.n3q3"] = (
        _median_ns(lambda: sizes.append(len(brute_force_minimum(3, 3))), 5) / 1e6
    )
    wrong += len(set(sizes)) != 1
    geom = geometry(3, 8)
    pts = geom.points
    pairs = [tuple(rng.sample(pts, 2)) for _ in range(100)]
    formula = unseparated_pencil_count(3, 8)
    counts = []
    out["separating.claim_pair_us.n3q8"] = (
        _ns_per_call(
            lambda u, v: counts.append(count_unseparated_bruteforce(3, 8, u, v)), pairs, 1
        )
        / 1e3
    )
    wrong += any(c != formula for c in counts)
    return out, wrong


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------


def _timed(fn, sink: list):
    def wrapper(*args):
        t0 = clock()
        got = fn(*args)
        sink.append(clock() - t0)
        return got

    return wrapper


def game_rows(rng: random.Random, dists: dict) -> tuple[dict[str, float], int]:
    """Rows, and the count of games whose outcome was wrong; fills dists
    with the game-time distributions.  The sweeps are the 1,601 fixed-point
    games of adaptive-sweep at (5, 5) and (4, 9), per strategy."""
    from qsearch.game import AdversaryOracle, FixedOracle, run_game, searcher_from_name
    from qsearch.projspace import geometry

    out, wrong = {}, 0
    answers: list[int] = []
    for strategy in ("inductive", "two-round"):
        games: list[int] = []
        decides: list[int] = []
        for n, q in ((5, 5), (4, 9)):
            bound = (q - 1) * (n - 1) + 1
            for p in geometry(n, q).points:
                s = searcher_from_name(strategy, n, q)
                o = FixedOracle(q, p)
                s.decide = _timed(s.decide, decides)
                o.answer = _timed(o.answer, answers)
                t0 = clock()
                t = run_game(s, o, n, q)
                games.append(clock() - t0)
                wrong += t.identified != p or t.count > bound
        ms = [g / 1e6 for g in games]
        dists[f"game.run_game_ms.{strategy}"] = percentile_tail(ms)
        # adaptive-sweep games_per_s
        out[f"game.run_game_ms.{strategy}.p50"] = statistics.median(ms)
        out[f"game.run_game_ms.{strategy}.p99"] = statistics.quantiles(ms, n=100)[98]
        out[f"game.decide_us.{strategy}"] = statistics.median(decides) / 1e3
    out["game.answer_us.fixed"] = statistics.median(answers) / 1e3
    # separating-build wall_s: the adversary replays its history per answer
    adv: list[int] = []
    names = ["plane", "inductive", "two-round"] + [
        f"random-lines:{rng.randrange(1000)}" for _ in range(5)
    ]
    for q in (5, 7):
        for name in names:
            o = AdversaryOracle(q)
            o.answer = _timed(o.answer, adv)
            t = run_game(searcher_from_name(name, 3, q), o, 3, q)
            wrong += t.identified is None or t.count < 2 * q - 1
    out["game.answer_us.adversary"] = statistics.median(adv) / 1e3
    return out, wrong


# ---------------------------------------------------------------------------
# bounds and cli
# ---------------------------------------------------------------------------


def bounds_rows() -> dict[str, float]:
    from qsearch.bounds import bounds_report

    # separating-build wall_s, a little
    return {"bounds.report_ms.n5q9": _median_ns(lambda: bounds_report(5, 9), 21) / 1e6}


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qsearch.cli; "
    "print(time.perf_counter() - t, qsearch.cli.__file__)"
)


def cli_rows(runner: Runner) -> tuple[dict[str, float], int]:
    """Interpreter start alone, and `import qsearch.cli` timed inside a
    fresh interpreter; both move setup_s everywhere and wall_s mostly on
    separating-build, whose pass starts the most processes."""
    spawns = [runner.spawn([sys.executable, "-c", "pass"])[1] for _ in range(7)]
    imports, wrong = [], 0
    for _ in range(7):
        code, _, _, out = runner.spawn([sys.executable, "-c", IMPORT_PROBE])
        secs, path = out.decode().split()
        wrong += code != 0 or not path.startswith(str(SRC))
        imports.append(float(secs))
    return {
        "cli.spawn_ms": statistics.median(spawns) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
    }, wrong


def run_layers(seed: int, runner: Runner) -> tuple[dict[str, float], dict, int]:
    """Every per-layer row; the game-time distributions and the seconds each
    layer took to measure; and the number of wrong results seen."""
    rng = random.Random(f"layers:{seed}")
    dists: dict = {}
    rows, wrong, seconds = {}, 0, {}
    for layer, measure in (
        ("gf", lambda: (gf_rows(rng), 0)),
        ("projspace", lambda: (projspace_rows(rng), 0)),
        ("separating", lambda: separating_rows(rng, runner.workdir)),
        ("game", lambda: game_rows(rng, dists)),
        ("bounds", lambda: (bounds_rows(), 0)),
        ("cli", lambda: cli_rows(runner)),
    ):
        t0 = time.perf_counter()
        got, bad = measure()
        seconds[layer] = time.perf_counter() - t0
        rows.update(got)
        wrong += bad
    return rows, {"game_time_ms": dists, "layer_run_s": seconds}, wrong
