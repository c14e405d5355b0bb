"""Command-line front end.

Subcommands: adaptive (play searcher vs oracle), construct (build a
separating system and write it out), verify (check a query-set file),
bounds (closed-form brackets), oracle claim-count / brute-min (exhaustive
cross-checks), replay (re-run a saved transcript byte for byte).

Handlers return (report, ok), and `main` alone prints the report: JSON
with sorted keys and two-space indent, the same bytes for the same call.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage or input.
Each handler imports the modules it runs, so a process loads only its
command's: `bounds` loads no `game` or `separating`, `construct` no `game`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .gf import is_prime_power
from .projspace import TooLarge, gaussian_binomial, geometry, point_count


# Largest number of pencil checks (point pairs times (n-2)-subspaces) that
# oracle claim-count takes on; its runtime grows with that count.
CLAIM_CHECK_CAP = 2 * 10**6


def _cmd_adaptive(args) -> tuple[dict, bool]:
    from .bounds import adaptive_bounds
    from .game import oracle_from_name, run_game, searcher_from_name, sweep

    n, q = args.n, args.q
    geometry(n, q)  # the point cap comes before any other work
    bound = adaptive_bounds(n, q)[1]
    report = {
        "command": "adaptive",
        "n": n,
        "q": q,
        "strategy": args.strategy,
        "oracle": args.oracle,
        "bound": bound,
    }
    if args.oracle == "fixed:all" and args.save:
        raise ValueError("--save records a single game, not a sweep")
    s = searcher_from_name(args.strategy, n, q)  # searchers are pure: one serves all
    if args.oracle == "fixed:all":
        games = sweep(s, n, q)
        counts = [count for _, count, _ in games]
        failures = sum(1 for _, count, found in games if not found or count > bound)
        ok = failures == 0
        report.update(
            games=len(counts),
            max_count=max(counts),
            mean_count=sum(counts) / len(counts),
            failures=failures,
        )
    else:
        o = oracle_from_name(args.oracle, n, q)
        t = run_game(s, o, n, q)
        if args.oracle == "adversary":
            report["threshold"] = bound
            ok = t.identified is not None and t.count >= bound
        else:
            ok = t.identified == o.point and t.count <= bound
        report.update(count=t.count, outcome=t.outcome)
        if args.save:
            Path(args.save).write_text(t.to_json() + "\n")
    return {**report, "ok": ok}, ok


def _cmd_construct(args) -> tuple[dict, bool]:
    from .bounds import nonadaptive_upper
    from .separating import explicit_construction, random_construction_trace, separating_witness

    n, q = args.n, args.q
    geometry(n, q)  # the point cap comes before any other work
    explicit_bound, random_bound = nonadaptive_upper(n, q)
    if args.method == "explicit":
        qs = explicit_construction(n, q)
        seed = attempts = None
        bound = explicit_bound
    else:
        if args.seed is None:
            raise ValueError("--method random needs --seed")
        qs, attempts = random_construction_trace(n, q, args.seed)
        seed = args.seed
        bound = random_bound
    separating = separating_witness(qs) is None
    if args.out:
        qs.save(args.out)
    ok = separating and len(qs) <= bound
    return {
        "command": "construct",
        "n": n,
        "q": q,
        "method": args.method,
        "seed": seed,
        "attempts": attempts,
        "size": len(qs),
        "bound": bound,
        "separating": separating,
        "out": args.out,
        "ok": ok,
    }, ok


def _cmd_verify(args) -> tuple[dict, bool]:
    from .separating import QuerySet, separating_witness

    qs = QuerySet.load(args.file)
    wit = separating_witness(qs)
    return {
        "command": "verify",
        "file": args.file,
        "n": qs.n,
        "q": qs.q,
        "size": len(qs),
        "separating": wit is None,
        "witness": None if wit is None else [list(wit[0]), list(wit[1])],
    }, wit is None


def _cmd_bounds(args) -> tuple[dict | None, bool]:
    from .bounds import bounds_dict, bounds_report, write_bounds_csv

    rows = bounds_report(args.n, args.q)
    if args.csv:
        write_bounds_csv(sys.stdout, rows)
        return None, True
    return {"command": "bounds", **bounds_dict(rows)}, True


def _cmd_claim_count(args) -> tuple[dict, bool]:
    from .separating import first_count_mismatch, unseparated_pencil_count

    n, q = args.n, args.q
    if n < 3:
        raise ValueError(f"pencils through (n-2)-subspaces need n >= 3, got n={n}")
    npoints = point_count(n, q, CLAIM_CHECK_CAP)  # every pair is checked
    pairs = npoints * (npoints - 1) // 2
    checks = pairs * gaussian_binomial(n, n - 2, q)
    if checks > CLAIM_CHECK_CAP:
        raise TooLarge(f"{checks} pencil checks exceeds the cap of {CLAIM_CHECK_CAP}")
    mismatch = first_count_mismatch(n, q)
    ok = mismatch is None
    if not ok:
        u, v, got = mismatch
        mismatch = {"u": list(u), "v": list(v), "count": got}
    return {
        "command": "oracle-claim-count",
        "n": n,
        "q": q,
        "formula": unseparated_pencil_count(n, q),
        "pairs": pairs,
        "first_mismatch": mismatch,
        "ok": ok,
    }, ok


def _cmd_brute_min(args) -> tuple[dict, bool]:
    from .separating import BRUTE_SIZE_CAP, Exhausted, brute_force_minimum

    n, q = args.n, args.q
    max_size = BRUTE_SIZE_CAP if args.max is None else args.max
    restrict = not args.all_dims
    try:
        qs = brute_force_minimum(n, q, max_size=max_size, restrict_to_hyperplanes=restrict)
        witness = [s.literal() for s in qs.queries]
    except Exhausted:
        witness = None
    ok = witness is not None
    return {
        "command": "oracle-brute-min",
        "n": n,
        "q": q,
        "max_size": max_size,
        "restrict_to_hyperplanes": restrict,
        "minimum": len(witness) if ok else None,
        "witness": witness,
        "ok": ok,
    }, ok


def _cmd_replay(args) -> tuple[dict, bool]:
    from .game import Transcript, replay

    t = Transcript.from_json(Path(args.file).read_text())
    if not is_prime_power(t.q):
        raise ValueError(f"transcript has non-prime-power q={t.q}")
    match, fresh = replay(t)
    return {
        "command": "replay",
        "file": args.file,
        "match": match,
        "count": fresh.count,
        "outcome": fresh.outcome,
    }, match


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, like every other error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsearch",
        description="search for an unknown line through the origin in GF(q)^n",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    nq = argparse.ArgumentParser(add_help=False)  # --n and --q, shared below
    nq.add_argument("--n", type=int, required=True)
    nq.add_argument("--q", type=int, required=True)

    p = sub.add_parser("adaptive", parents=[nq], help="play one searcher against one oracle")
    p.add_argument(
        "--strategy",
        required=True,
        help="plane, inductive, two-round, or random-lines:<seed>",
    )
    p.add_argument(
        "--oracle",
        required=True,
        help="fixed:<c1,...,cn>, fixed:all (sweep every point), or adversary",
    )
    p.add_argument("--save", help="write the transcript JSON here (single game only)")
    p.set_defaults(handler=_cmd_adaptive)

    p = sub.add_parser("construct", parents=[nq], help="build a separating system")
    p.add_argument("--method", choices=("explicit", "random"), required=True)
    p.add_argument("--seed", type=int, help="required for --method random")
    p.add_argument("--out", help="write the system to this file")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a query-set file for separation")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", parents=[nq], help="closed-form brackets for one (n, q)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--csv", action="store_true", help="one row per bound")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("oracle", help="exhaustive cross-checks")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    osub.add_parser(
        "claim-count",
        parents=[nq],
        help="per-pair unseparated-pencil count: formula vs brute force",
    ).set_defaults(handler=_cmd_claim_count)

    pb = osub.add_parser(
        "brute-min", parents=[nq], help="exact minimum separating-system size"
    )
    pb.add_argument("--max", type=int, help="largest size to try")
    pb.add_argument(
        "--all-dims",
        action="store_true",
        help="allow every proper subspace as a query, not just hyperplanes",
    )
    pb.set_defaults(handler=_cmd_brute_min)

    p = sub.add_parser("replay", help="re-run a saved transcript and compare")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    q = getattr(args, "q", None)
    n = getattr(args, "n", None)
    try:
        if q is not None and not is_prime_power(q):
            parser.error(f"q={q} is not a prime power")
        if n is not None and n < 2:
            parser.error(f"need n >= 2, got n={n}")
        report, ok = args.handler(args)
        if report is not None:
            print(json.dumps(report, sort_keys=True, indent=2))
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
