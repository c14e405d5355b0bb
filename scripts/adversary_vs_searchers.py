#!/usr/bin/env python3
"""Pit the n=3 adversarial oracle against a roster of searchers and report
how many queries each one is forced to spend.

Every consistent searcher should be forced to at least 2q-1 queries; the
exit code is nonzero if any run comes in under that or fails to finish."""

import argparse
import os
import sys

from qsearch.game import AdversaryOracle, run_game, searcher_from_name
from qsearch.gf import is_prime_power
from qsearch.projspace import geometry


def play(orders, names) -> int:
    """Play every searcher against the adversary at each order, print one
    summary line per order, and return the number of failed runs."""
    bad = 0
    for q in orders:
        floor = 2 * q - 1
        counts = {}
        for name in names:
            t = run_game(searcher_from_name(name, 3, q), AdversaryOracle(q), 3, q)
            if t.identified is None:
                print(f"q={q} {name}: aborted ({t.outcome})")
                bad += 1
                continue
            counts[name] = t.count
            if t.count < floor:
                print(f"q={q} {name}: only {t.count} queries, below {floor}")
                bad += 1
        rand = [c for n_, c in counts.items() if n_.startswith("random-lines:")]
        print(
            f"q={q} floor={floor}: plane={counts.get('plane')} "
            f"inductive={counts.get('inductive')} "
            f"two-round={counts.get('two-round')} "
            f"random-lines min={min(rand)} max={max(rand)} "
            f"mean={sum(rand) / len(rand):.2f} over {len(rand)} seeds"
        )
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--q", type=int, nargs="+", default=[2, 3, 4, 5, 7], help="field orders to play"
    )
    ap.add_argument("--seeds", type=int, default=25, help="random-line searchers")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    for q in args.q:
        try:
            if not is_prime_power(q):
                ap.error(f"q={q} is not a prime power")
            geometry(3, q)
        except ValueError as exc:  # TooLarge, or an order above a cap
            ap.error(f"q={q}: {exc}")
    names = ["plane", "inductive", "two-round"] + [
        f"random-lines:{s}" for s in range(args.seeds)
    ]
    try:
        bad = play(args.q, names)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone: send the unwritten rest to devnull so that the
        # flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
