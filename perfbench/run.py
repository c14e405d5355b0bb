#!/usr/bin/env python3
"""qsearch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run spawns the workload's qsearch invocations one
at a time (a closed loop with one client), repeating whole passes for at
most S seconds, checks every output and reports the end-to-end metrics:
the mean pass wall time over the whole run, throughput (games or points
per second, by workload), the median set-up time and the highest per-child
peak RSS.
The fail rate is ``failed`` over ``attempted``.

With ``--trace 1`` it measures each layer through its public functions,
then runs every workload in-process once untraced and once traced, and
reports the per-layer metrics; S does not apply.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, seed, distributions, failures, span tables).  The
program is run from ``src/`` of the checkout the script sits in; the run
exits 2 without a result when that source is missing.
"""

import sys

from spawner import Spawner

if __name__ == "__main__":
    # The helper that starts children is forked while this process is small.
    with Spawner() as spawner:
        from bench import main

        code = main(spawner)
    sys.exit(code)
