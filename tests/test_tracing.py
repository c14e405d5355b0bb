"""The benchmark's tracer still counts oracle answers: it wraps
`answer(query, history)` and reads the history as (query, Answer) pairs,
so a change to the oracle's arguments must not leave it counting nothing."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import qsearch.cli
from qsearch import game

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_tracer_counts_adversary_answers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t = game.run_game(game.PlaneSearcher(3), game.AdversaryOracle(3), 3, 3)
        out = io.StringIO()
        with redirect_stdout(out):
            code = qsearch.cli.main(
                ["adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
                 "--oracle", "fixed:all"]
            )
    finally:
        tracer.uninstall()
    assert t.identified is not None and code == 0 and out.getvalue()
    assert tracer.queries["adversary"] == t.count > 0
