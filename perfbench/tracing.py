"""Traced in-process runs of a workload.

Each invocation of a workload is run through ``qsearch.cli.main`` (or the
script's ``main``) inside this process.  Wrappers installed from here, never
from the program, record a span whenever a call crosses from one layer into
another; calls within a layer are only counted.  Spans are aggregated in
memory by invocation, layer, function and parent span as they close, since
a workload makes millions of layer calls.  A layer's self time is its spans'
duration minus the part covered by child spans.

Scalar ``GF`` operations are counted without spans: a span would cost more
than the operation.  The ``gf`` layer's spans are field constructions.
"""

from __future__ import annotations

import importlib
import io
import os
import runpy
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import ROOT, Invocation, Runner, Workload

LAYERS = ("cli", "game", "separating", "bounds", "projspace", "gf")

# Layer boundaries: the public entry points of each module.
SPANS = {
    "cli": ["qsearch.cli:main"],
    "game": [
        "qsearch.game:" + name
        for name in (
            "run_game",
            "replay",
            "searcher_from_name",
            "oracle_from_name",
            "PlaneSearcher.decide",
            "InductiveSearcher.decide",
            "TwoRoundSearcher.decide",
            "RandomLineSearcher.decide",
            "FixedOracle.answer",
            "AdversaryOracle.answer",
        )
    ],
    "separating": [
        "qsearch.separating:" + name
        for name in (
            "separating_witness",
            "is_separating",
            "signatures",
            "explicit_construction",
            "coordinate_hyperplane",
            "ratio_hyperplane",
            "random_construction_trace",
            "unseparated_pencil_count",
            "count_unseparated_bruteforce",
            "brute_force_minimum",
            "QuerySet.load",
            "QuerySet.save",
        )
    ],
    "bounds": ["qsearch.bounds:bounds_report"],
    "projspace": [
        "qsearch.projspace:" + name
        for name in (
            "geometry",
            "rref",
            "normalize",
            "nullspace_basis",
            "hyperplanes_through",
            "Subspace.span",
            "Subspace.parse",
            "Subspace.contains",
            "Geometry.mask",
            "Geometry.point_mask",
            "Geometry.pencil",
            "Geometry.subspaces",
        )
    ],
    "gf": ["qsearch.gf:GF.__init__"],
}
GF_SCALAR = ["qsearch.gf:GF." + op for op in ("add", "neg", "sub", "mul", "inv", "div", "dot")]
MASK = "qsearch.projspace:Geometry.mask"
ORACLE_ANSWERS = ("qsearch.game:FixedOracle.answer", "qsearch.game:AdversaryOracle.answer")
RUN_GAME = "qsearch.game:run_game"

# Layers a workload exercises; idle layers report no self time.
ACTIVE_LAYERS = {
    "adaptive-sweep": ("cli", "game", "separating", "projspace", "gf"),
    "separating-build": LAYERS,
}
# Games whose answer-prefix counts are reported: the fixed-oracle sweeps of
# adaptive-sweep by strategy, and the adversary games of separating-build.
PREFIX_LABELS = ("inductive", "two-round", "plane", "adversary")


def _qsearch_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qsearch"]


def cache_clearers() -> list:
    """cache_clear of every memoized function in the package, so that an
    in-process invocation starts as cold as a fresh process."""
    out = {}
    for mod in _qsearch_modules():
        for obj in vars(mod).values():
            mine = getattr(obj, "__module__", "").startswith("qsearch")
            if mine and callable(getattr(obj, "cache_clear", None)):
                out[id(obj)] = obj.cache_clear
    return list(out.values())


class Tracer:
    """Installs the wrappers, aggregates spans and counts, and removes the
    wrappers again."""

    def __init__(self):
        self.stack = [["bench", "-", 0]]  # [layer, function, child ns]
        self.invocation = ""
        # (invocation, layer, function, parent function) -> [calls, total ns, self ns]
        self.spans: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.calls: dict[str, list[int]] = {}
        self.mask_builds = 0
        self._masks_seen: set = set()
        self.game = None
        # keyed by strategy label, and by (label, n, q)
        self.queries: dict = defaultdict(int)
        self.prefixes: dict = defaultdict(set)
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _counted(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer: str, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[2] += dt
                agg = spans[(self.invocation, layer, name, parent[1])]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[2]

        return wrapper

    def _mask_counter(self, fn):
        """A mask is built the first time a geometry is asked for a subspace;
        later requests are cache hits."""

        def wrapper(geom, s):
            key = (id(geom), s)
            if key not in self._masks_seen:
                self._masks_seen.add(key)
                self.mask_builds += 1
            return fn(geom, s)

        return wrapper

    def _run_game(self, fn):
        def wrapper(searcher, oracle, n, q, *args, **kwargs):
            sname = getattr(searcher, "name", type(searcher).__name__)
            label = "adversary" if getattr(oracle, "name", "") == "adversary" else sname
            self.game = (label, sname, n, q)
            return fn(searcher, oracle, n, q, *args, **kwargs)

        return wrapper

    def _prefix(self, fn):
        """Count asked queries and the distinct answer prefixes they were
        asked at; a deterministic searcher asks the same query at the same
        prefix."""

        def wrapper(oracle, query, history):
            label, searcher, n, q = self.game
            answers = tuple((a.yes, a.volunteered) for _, a in history)
            self.queries[label] += 1
            self.prefixes[label].add((self.game, answers))
            self.queries[(label, n, q)] += 1
            self.prefixes[(label, n, q)].add((searcher, answers))
            return fn(oracle, query, history)

        return wrapper

    # -- installing --------------------------------------------------------------

    def _resolve(self, spec: str):
        """(owner, attribute, raw value) of a target, or None when a later
        version of the program no longer has it."""
        modname, qual = spec.split(":")
        owner = importlib.import_module(modname)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def _wrap(self, spec: str, make) -> None:
        found = self._resolve(spec)
        if found is None:
            self.missing.append(spec)
            return
        owner, attr, raw = found
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(fn)
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
            self._undo.append((owner, attr, raw))
            return
        # a module function is also bound by name in every importing module
        new = make(raw)
        for mod in _qsearch_modules():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, new)
                    self._undo.append((mod, name, raw))

    def install(self) -> None:
        for spec in GF_SCALAR:
            self._wrap(spec, lambda fn, s=spec: self._counted(s.split(":")[1], fn))
        specials = {MASK: self._mask_counter, RUN_GAME: self._run_game}
        specials.update({spec: self._prefix for spec in ORACLE_ANSWERS})
        for layer, specs in SPANS.items():
            for spec in specs:
                inner = specials.get(spec)

                def make(fn, layer=layer, spec=spec, inner=inner):
                    return self._span(layer, spec.split(":")[1], inner(fn) if inner else fn)

                self._wrap(spec, make)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def begin(self, label: str) -> None:
        """Start one invocation; its caches start cold, so mask builds are
        counted afresh."""
        self.invocation = label
        self._masks_seen.clear()

    # -- results -----------------------------------------------------------------

    def count(self, spec: str) -> int:
        return self.calls.get(spec.split(":")[1], [0])[0]

    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, _, _), (_, _, self_ns) in self.spans.items():
            out[layer] += self_ns / 1e9
        return out

    def span_table(self) -> list[dict]:
        """Spans grouped by layer, function and parent over the workload."""
        grouped: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])
        for (_, layer, fn, parent), agg in self.spans.items():
            g = grouped[(layer, fn, parent)]
            for i in range(3):
                g[i] += agg[i]
        rows = [
            {"layer": k[0], "function": k[1], "parent": k[2], "calls": v[0],
             "total_s": v[1] / 1e9, "self_s": v[2] / 1e9}
            for k, v in grouped.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def call_in_process(inv: Invocation, workdir: Path, clearers: list) -> tuple[int, bytes]:
    """Run one invocation in this process from cold caches: exit code and
    stdout."""
    for clear in clearers:
        clear()
    out, err = io.StringIO(), io.StringIO()
    cwd, argv = os.getcwd(), sys.argv
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if inv.is_script:
                script = str(ROOT / inv.argv[0])
                sys.argv = [script, *inv.argv[1:]]
                code = runpy.run_path(script, run_name="perfbench_script")["main"]()
            else:
                code = importlib.import_module("qsearch.cli").main(list(inv.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        os.chdir(cwd)
        sys.argv = argv
    return code, out.getvalue().encode()


def traced_workload(workload: Workload, runner: Runner) -> tuple[dict, dict, int, int]:
    """One untraced and one traced in-process pass of the workload.

    Returns the per-layer metrics, the details, the invocations attempted
    and the number whose output was wrong.
    """
    clearers = cache_clearers()
    wrong = 0

    def one_pass(before=None) -> float:
        nonlocal wrong
        total = 0.0
        for inv in workload.invocations:
            if before:
                before(inv.label)
            t0 = time.perf_counter()
            code, out = call_in_process(inv, runner.workdir, clearers)
            total += time.perf_counter() - t0
            wrong += runner.check(inv, code, out) is not None
        return total

    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer.begin)
    finally:
        tracer.uninstall()

    name = workload.name
    mask_calls = tracer.count(MASK)
    selfs = tracer.self_seconds()
    metrics = {f"{name}.{layer}.self_s": selfs[layer] for layer in ACTIVE_LAYERS[name]}
    metrics.update({
        f"{name}.projspace.rref.calls": tracer.count("qsearch.projspace:rref"),
        f"{name}.projspace.mask.calls": mask_calls,
        f"{name}.projspace.mask.builds": tracer.mask_builds,
        f"{name}.projspace.mask.hit_ratio": 1 - tracer.mask_builds / max(mask_calls, 1),
        f"{name}.gf.calls": sum(tracer.count(s) for s in GF_SCALAR),
        f"{name}.trace.overhead_s": traced - untraced,
    })
    for label in PREFIX_LABELS:
        if label in tracer.queries:
            queries, prefixes = tracer.queries[label], len(tracer.prefixes[label])
            metrics[f"game.queries.{label}"] = queries
            metrics[f"game.prefixes.{label}"] = prefixes
            metrics[f"game.prefix_reuse.{label}"] = 1 - prefixes / queries
    details = {
        "untraced_s": untraced,
        "traced_s": traced,
        "self_s": selfs,
        "gf_calls": {s.split(".")[-1]: tracer.count(s) for s in GF_SCALAR},
        "queries_and_prefixes": {
            " ".join(map(str, game)): [tracer.queries[game], len(tracer.prefixes[game])]
            for game in sorted(k for k in tracer.queries if isinstance(k, tuple))
        },
        "spans": tracer.span_table(),
        "missing_targets": tracer.missing,
    }
    return metrics, details, 2 * len(workload.invocations), wrong

