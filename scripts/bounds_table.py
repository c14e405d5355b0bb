#!/usr/bin/env python3
"""Tabulate adaptive and non-adaptive query-count brackets over an (n, q)
grid.  Emits one CSV row per bound so the output loads straight into a
dataframe; non-prime-power orders, and an (n, q) over the report's size
cap, are skipped with a note on stderr."""

import argparse
import os
import sys

from qsearch.bounds import bounds_report, write_bounds_csv
from qsearch.gf import is_prime_power
from qsearch.projspace import TooLarge


def rows(ns, qs):
    for n in ns:
        for q in qs:
            if n < 2:
                print(f"skipping n={n}: need n >= 2", file=sys.stderr)
                continue
            try:
                if not is_prime_power(q):
                    raise ValueError("not a prime power")
            except ValueError as exc:  # or an order beyond the primality test
                print(f"skipping q={q}: {exc}", file=sys.stderr)
                continue
            try:
                report = bounds_report(n, q)
            except TooLarge as exc:
                print(f"skipping n={n} q={q}: {exc}", file=sys.stderr)
                continue
            yield from report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[3, 4, 5], help="ambient dimensions")
    ap.add_argument(
        "--q", type=int, nargs="+", default=[2, 3, 4, 5, 7, 8, 9], help="field orders"
    )
    args = ap.parse_args()
    try:
        write_bounds_csv(sys.stdout, rows(args.n, args.q))
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone: send the unwritten rest to devnull so that the
        # flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
