"""The benchmark's frozen digests replay in the test suite: every
fixed-input invocation in `perfbench/expected.json` runs in process from
cold caches, and its exit code, stdout and written files must match what
is frozen there, so byte drift in a report fails here and not only when
the benchmark runs."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_frozen_invocation_reproduces_its_digests(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    runner = workloads.Runner(tmp_path, spawner=None)
    clearers = tracing.cache_clearers()
    # file order: the construct that writes a system precedes its verify
    labels = list(runner.expected)
    mismatches = {}
    for label in labels:
        inv = workloads.Invocation(tuple(label.split()))
        code, out = tracing.call_in_process(inv, tmp_path, clearers)
        problem = runner.check(inv, code, out)
        if problem is not None:
            mismatches[label] = problem
    assert mismatches == {}
    assert len(labels) == 17
