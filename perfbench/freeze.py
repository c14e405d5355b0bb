#!/usr/bin/env python3
"""Record the exit code and stdout digest of every fixed-input invocation,
and the digest of each file it writes, into expected.json.

    python3 perfbench/freeze.py

Run it only on a commit whose outputs are known to be right: the benchmark
then counts any later change of these bytes as a failure.
"""

import json
import os
import shutil
import sys

from spawner import Spawner
from workloads import EXPECTED_PATH, ROOT, SRC, WORKLOADS, Runner, digest


class Recorder(Runner):
    """Accepts every fixed-input output and remembers it."""

    def check(self, inv, exit_code, stdout):
        if inv.check is not None:
            return super().check(inv, exit_code, stdout)
        entry = {"exit": exit_code, "stdout": digest(stdout)}
        if inv.files:
            entry["files"] = {f: digest((self.workdir / f).read_bytes()) for f in inv.files}
        self.expected[inv.label] = entry
        return None


def main() -> int:
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_build" / f"perfbench-freeze-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with Spawner() as spawner:
            recorder = Recorder(workdir, spawner, expected={})
            for make in WORKLOADS.values():
                for inv in make(0, recorder).invocations:
                    result = recorder.run(inv)
                    if result.error:
                        print(f"{inv.label}: {result.error}", file=sys.stderr)
                        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(recorder.expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
