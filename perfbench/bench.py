"""The benchmark run: timed CLI passes or the traced per-layer run; see run.py."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

from layers import percentile_tail as summary
from workloads import ROOT, SRC, WORKLOADS, Runner, npoints, self_test

MIN_PASSES = 3
SETUPS_PER_PASS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name: a time suffix such as
    ``_ms`` on some component, a ratio, or else a count."""
    for part in reversed(name.split(".")):
        head, _, tail = part.rpartition("_")
        if head and tail in ("ns", "us", "ms", "s"):
            return tail
        if tail == "ratio" or part == "prefix_reuse":
            return "ratio"
    return "count"


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            names = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            model = next(names, None)
    except OSError:
        model = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(n: int, q: int) -> list[str]:
    """A fresh interpreter that imports the CLI and builds the field and
    geometry of the workload's largest instance."""
    code = (
        "import qsearch.cli\n"
        "from qsearch.gf import field\n"
        "from qsearch.projspace import geometry\n"
        f"field({q})\n"
        f"print(len(geometry({n}, {q}).points), qsearch.cli.__file__)\n"
    )
    return [sys.executable, "-c", code]


def timed_run(name: str, seed: int, seconds: int, runner: Runner) -> tuple[dict, dict]:
    code, _, _, out = runner.spawn(setup_probe(2, 2))  # compiles the bytecode once
    if code != 0:
        raise RuntimeError("qsearch does not import")
    workload = WORKLOADS[name](seed, runner)
    n, q = workload.largest

    def set_up() -> float:
        code, wall, _, out = runner.spawn(setup_probe(n, q))
        count, path = out.decode().split()
        if code != 0 or int(count) != npoints(n, q) or not path.startswith(str(SRC)):
            raise RuntimeError(f"set-up probe failed: {out!r}")
        return wall

    # Set-up is timed before every pass, so that its median spans the whole
    # run as the pass times do, not only the run's first second.
    results, passes, setups = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setups.extend(set_up() for _ in range(SETUPS_PER_PASS))
        batch = [runner.run(inv) for inv in workload.invocations]
        results.extend(batch)
        passes.append(sum(r.wall_s for r in batch))
        now = time.perf_counter()
        # another pass starts only if it should end within the run's seconds
        if len(passes) >= MIN_PASSES and now - start + (now - began) > seconds:
            break
    missed = self_test(workload, results, runner)

    # The host's CPU speed drifts by tens of percent over seconds to
    # minutes, and a pass (5-12 s) spans only part of a drift.  The mean pass
    # is the run's total timed seconds over its passes, so it averages the
    # whole run; the median of a handful of passes follows whichever passes
    # fell in slow stretches.  The median and tail are in the details.
    wall = statistics.fmean(passes)
    work = workload.work_per_pass()
    failures = [(r.label, r.error) for r in results if r.error]
    metrics = {
        "wall_s": wall,
        "throughput_per_s": work / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    invocations = {}
    for inv in workload.invocations:
        mine = [r for r in results if r.label == inv.label]
        invocations[inv.label] = {
            "wall_s": summary([r.wall_s for r in mine]),
            "peak_rss_mb": max(r.rss_mb for r in mine),
        }
    details = {
        "pass_wall_s": summary(passes),
        "passes": passes,
        "setup_s": summary(setups),
        f"{workload.unit}_per_pass": work,
        f"{workload.unit}_per_s": work / wall,
        "fail_rate": len(failures) / len(results),
        "failures": failures[:20],
        "self_test_missed": missed,
        "invocations": invocations,
    }
    ok = not failures and not missed
    result = {"correct": ok, "attempted": len(results), "failed": len(failures)}
    return {**result, "metrics": metrics}, details


def traced_run(seed: int, runner: Runner) -> tuple[dict, dict]:
    from layers import ROADMAP_BASELINE, run_layers
    from tracing import PREFIX_LABELS, traced_workload

    # Attempts are the layer rows measured plus the in-process invocations.
    metrics, layer_details, wrong = run_layers(seed, runner)
    attempted, failed = len(metrics), wrong
    traces = {}
    for name, make in WORKLOADS.items():
        t0 = time.perf_counter()
        got, details, tried, bad = traced_workload(make(seed, runner), runner)
        details["run_s"] = time.perf_counter() - t0
        metrics.update(got)
        traces[name] = details
        attempted += tried
        failed += bad
    for label in PREFIX_LABELS:  # a strategy no workload played counts zero
        for kind in ("queries", "prefixes", "prefix_reuse"):
            metrics.setdefault(f"game.{kind}.{label}", 0)
    details = {
        "roadmap_baseline": {
            k: {"roadmap": v, "measured": metrics[k], "unit": per_layer_unit(k)}
            for k, v in ROADMAP_BASELINE.items()
        },
        **layer_details,
        "traces": traces,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return {**result, "metrics": metrics}, details


def main(spawner, argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="qsearch benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "qsearch" / "cli.py").is_file():
        print(f"error: no qsearch source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workdir, spawner)
    try:
        if args.trace:
            result, details = traced_run(args.seed, runner)
            units = {k: per_layer_unit(k) for k in result["metrics"]}
        else:
            result, details = timed_run(args.workload, args.seed, args.seconds, runner)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
    }
    head = {k: getattr(args, k) for k in ("workload", "seed", "seconds", "trace")}
    print(json.dumps({"details": {**head, "environment": env, **details}}))
    print(json.dumps(result))
    return 0
