import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qsearch
from qsearch.cli import main
from qsearch.gf import PRIMALITY_BOUND
from qsearch.projspace import Subspace, geometry

SCHEMA = json.loads(
    (Path(qsearch.__file__).parent / "schemas" / "report.schema.json").read_text()
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout, stderr was: {err}"
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_adaptive_sweep(capsys):
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
        "--oracle", "fixed:all",
    )
    assert code == 0
    assert rep["max_count"] == 5
    assert rep["bound"] == 5
    assert rep["games"] == 13
    assert rep["failures"] == 0
    assert rep["ok"] is True


def test_adaptive_sweep_walks_a_deep_answer_tree(capsys):
    # random lines at (2, 1021) play games 1,021 queries deep; the frozen
    # figures are those of one refereed game per point
    start = time.monotonic()
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "2", "--q", "1021", "--strategy", "random-lines:1",
        "--oracle", "fixed:all",
    )
    assert time.monotonic() - start < 10
    assert code == 0
    assert rep["games"] == 1022
    assert rep["max_count"] == 1021
    assert rep["mean_count"] == 511.4990215264188
    assert rep["failures"] == 0
    assert rep["ok"] is True


def test_adaptive_single_fixed(capsys):
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "3", "--q", "2", "--strategy", "two-round",
        "--oracle", "fixed:1,0,1",
    )
    assert code == 0
    assert rep["count"] == 3
    assert rep["outcome"] == {"identified": [1, 0, 1]}


def test_adaptive_adversary(capsys):
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "3", "--q", "3", "--strategy", "inductive",
        "--oracle", "adversary",
    )
    assert code == 0
    assert rep["threshold"] == 5
    assert rep["count"] >= 5
    assert rep["ok"] is True


def test_adaptive_adversary_beyond_the_plane(capsys):
    # the threshold is the descent's (q-1)(n-1)+1, which is 2q-1 at n = 3
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "4", "--q", "3", "--strategy", "inductive",
        "--oracle", "adversary",
    )
    assert code == 0
    assert rep["threshold"] == rep["bound"] == 7
    assert rep["count"] >= 7
    assert rep["ok"] is True


def test_adaptive_save_and_replay(capsys, tmp_path):
    saved = tmp_path / "game.json"
    code, rep = run_json(
        capsys,
        "adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
        "--oracle", "fixed:1,2,0", "--save", str(saved),
    )
    assert code == 0
    code, rep = run_json(capsys, "replay", str(saved))
    assert code == 0
    assert rep["match"] is True


def test_replay_detects_tampering(capsys, tmp_path):
    saved = tmp_path / "game.json"
    run_json(
        capsys,
        "adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
        "--oracle", "fixed:1,0,0", "--save", str(saved),
    )
    doc = json.loads(saved.read_text())
    doc["oracle"] = "fixed:1,1,1"
    saved.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "replay", str(saved))
    assert code == 1
    assert rep["match"] is False


def test_replay_rejects_a_boolean_count(capsys, tmp_path):
    # JSON true passes isinstance(_, int); the file is malformed, not a
    # game that fails to match
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 3, "q": 3, "searcher": "plane", "oracle": "fixed:1,0,0",
                                "entries": [], "outcome": {}, "count": True}))
    code, out, err = run(capsys, "replay", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: transcript key 'count' must be a int\n"


def test_construct_and_verify_list_no_point(capsys, tmp_path):
    # separation reads masks and signatures, which need only the point
    # count, and a collision's two points are named in closed form
    geometry.cache_clear()
    for method in (("random", "--seed", "1"), ("explicit",)):
        out = tmp_path / "sys.txt"
        code, _, _ = run(
            capsys, "construct", "--n", "4", "--q", "5", "--method", *method, "--out", str(out)
        )
        assert code == 0
        code, rep = run_json(capsys, "verify", str(out))
        assert code == 0 and rep["separating"] is True
        assert "points" not in vars(geometry(4, 5))
    # the explicit system, missing its last query
    head, *lines = out.read_text().splitlines()
    q, n, count = head.split()
    broken = tmp_path / "broken.txt"
    broken.write_text("\n".join([f"{q} {n} {int(count) - 1}", *lines[:-1]]) + "\n")
    code, rep = run_json(capsys, "verify", str(broken))
    assert code == 1 and rep["separating"] is False
    assert rep["witness"] == [[0, 0, 1, 3], [0, 0, 1, 4]]  # as the dict loop named it
    assert "points" not in vars(geometry(4, 5))
    # nor does a single game, nor the mask of a point query
    for strategy in ("inductive", "two-round"):
        code, rep = run_json(
            capsys, "adaptive", "--n", "4", "--q", "5", "--strategy", strategy,
            "--oracle", "fixed:1,2,3,4",
        )
        assert code == 0 and rep["outcome"] == {"identified": [1, 2, 3, 4]}
    point = geometry(4, 5).mask(Subspace(5, 4, ((0, 1, 2, 3),)))
    assert point == 1 << geometry(4, 5).rank((0, 1, 2, 3))
    assert "points" not in vars(geometry(4, 5))


def test_replay_missing_file(capsys):
    code, out, err = run(capsys, "replay", "/nonexistent/game.json")
    assert code == 2
    assert "error" in err


def test_save_rejected_for_sweeps(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
        "--oracle", "fixed:all", "--save", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_construct_explicit_and_verify(capsys, tmp_path):
    out_file = tmp_path / "sys.txt"
    code, rep = run_json(
        capsys,
        "construct", "--n", "3", "--q", "3", "--method", "explicit",
        "--out", str(out_file),
    )
    assert code == 0
    assert rep["size"] == 6 and rep["bound"] == 6
    assert rep["separating"] is True
    code, rep = run_json(capsys, "verify", str(out_file))
    assert code == 0
    assert rep["separating"] is True and rep["witness"] is None


def test_construct_random(capsys, tmp_path):
    out_file = tmp_path / "rand.txt"
    code, rep = run_json(
        capsys,
        "construct", "--n", "4", "--q", "3", "--method", "random",
        "--seed", "5", "--out", str(out_file),
    )
    assert code == 0
    assert rep["size"] == 24 and rep["seed"] == 5
    assert rep["attempts"] >= 1
    assert out_file.exists()


def test_construct_random_needs_seed(capsys):
    code, out, err = run(
        capsys, "construct", "--n", "3", "--q", "3", "--method", "random"
    )
    assert code == 2
    assert "seed" in err


def test_verify_non_separating(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3 1\nq=2 n=3 k=2 basis=[[1,0,0],[0,1,0]]\n")
    code, rep = run_json(capsys, "verify", str(bad))
    assert code == 1
    assert rep["separating"] is False
    assert rep["witness"] == [[0, 0, 1], [0, 1, 1]]


def test_bounds_json(capsys):
    code, rep = run_json(capsys, "bounds", "--n", "3", "--q", "3")
    assert code == 0
    assert rep["adaptive_upper"]["exact"] == "5"
    assert rep["n3_specials"]["tau2_bound"]["exact"] == "7"


def test_bounds_csv(capsys):
    code, out, err = run(capsys, "bounds", "--n", "3", "--q", "121", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "n,q,name,tag,value,exact"
    assert len(lines) == 10  # header + 6 core + 3 plane specials
    assert lines[-1].rstrip("\r").startswith("3,121,n3_exact_m3q,exact-square,264")


# sha256 of `bounds --json` then `bounds --csv` stdout, first 16 hex digits,
# frozen when a report became its CSV rows: q = 2 (exact lower), n != 3 (no
# specials), prime, square, odd-power and huge orders, and n = 1000
BOUNDS_DIGESTS = {
    (3, 2): "0b35ede670bc9e18",
    (5, 2): "48b084cf75987d10",
    (1000, 2): "07224fcfbb5115b7",
    (3, 3): "ee4a81c2997418c8",
    (4, 3): "f96f4b7e13feacc4",
    (1000, 3): "6e93db319f6695f5",
    (3, 4): "4f1b73beb889cb94",
    (3, 5): "7fb574924cfd1836",
    (6, 5): "2831ea7b67aa5083",
    (3, 7): "e7d4b049d7ecf484",
    (3, 13): "acb0bffd215ca259",
    (3, 9): "4e9aefc36ff9d7ff",
    (3, 25): "86cca86cf4544b47",
    (3, 121): "6ccd6ebb6009b487",
    (3, 169): "e16cdce05c435c8c",
    (3, 27): "ad802a381b964367",
    (3, 125): "f220e78139593ecb",
    (3, 128): "0367dd9737766745",
    (3, 2187): "5b0fd615edb91145",
    (3, 1000000000000000003): "b7f0a9f557f971b3",
    (4, 1000000000000000003): "19cda3940b3aad1d",
}


@pytest.mark.parametrize("n,q", BOUNDS_DIGESTS)
def test_bounds_output_matches_its_frozen_digest(capsys, n, q):
    digest = hashlib.sha256()
    for fmt in ("--json", "--csv"):
        code, out, err = run(capsys, "bounds", "--n", str(n), "--q", str(q), fmt)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest()[:16] == BOUNDS_DIGESTS[n, q]


# the exit code, help and missing-argument text of every command, frozen
# while each subcommand still declared its own --n and --q
USAGE_DIGESTS = {
    "-h": "d1aa569cf3b51c01",
    "adaptive -h": "d272a7a0a6a282d6",
    "adaptive": "45b57be427879522",
    "construct -h": "2dc3f9c69df1616c",
    "construct": "ab899aac59578060",
    "verify -h": "ccc1bc3b6af4acd2",
    "verify": "70905f414ef6545e",
    "bounds -h": "6e085acf93920bbe",
    "bounds": "d812a9db7b256d1c",
    "replay -h": "777cc5ff2256d38f",
    "replay": "815eddec6be4adce",
    "oracle -h": "1f17a5ebb8dd5217",
    "oracle": "55bdb7f068a5398d",
    "oracle claim-count -h": "e4fb8f1b1073c71a",
    "oracle claim-count": "0c411701f4bb5b29",
    "oracle brute-min -h": "ab9e09997d28daae",
    "oracle brute-min": "95c9a397dc702448",
}


@pytest.mark.parametrize("argv", USAGE_DIGESTS)
def test_usage_text_matches_its_frozen_digest(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()
    assert digest[:16] == USAGE_DIGESTS[argv]


def test_bounds_refuses_an_oversized_n_at_once(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "bounds", "--n", "30000000", "--q", "3")
    assert time.monotonic() - start < 2  # the cap comes before q^n is built
    assert (code, out) == (2, "")
    assert err == "error: n * bits(q) = 60000000 exceeds the cap of 10000000\n"


def test_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "bounds", "--n", "4", "--q", "5")
    _, second, _ = run(capsys, "bounds", "--n", "4", "--q", "5")
    assert first == second
    _, first, _ = run(
        capsys,
        "adaptive", "--n", "3", "--q", "4", "--strategy", "plane",
        "--oracle", "fixed:all",
    )
    _, second, _ = run(
        capsys,
        "adaptive", "--n", "3", "--q", "4", "--strategy", "plane",
        "--oracle", "fixed:all",
    )
    assert first == second


def test_oracle_claim_count(capsys):
    code, rep = run_json(capsys, "oracle", "claim-count", "--n", "3", "--q", "2")
    assert code == 0
    assert rep["formula"] == 1
    assert rep["pairs"] == 21
    assert rep["first_mismatch"] is None


def test_oracle_claim_count_at_q11_is_quick(capsys):
    # 8,778 pairs times 133 pencils: only tables built once per (n, q) fit
    start = time.monotonic()
    code, rep = run_json(capsys, "oracle", "claim-count", "--n", "3", "--q", "11")
    assert time.monotonic() - start < 5
    assert code == 0
    assert (rep["formula"], rep["pairs"], rep["first_mismatch"]) == (10, 8778, None)


def test_construct_near_the_point_cap_is_quick(capsys):
    # 97,656 points: masks built with a loop over points take about 8 s
    start = time.monotonic()
    code, rep = run_json(
        capsys, "construct", "--n", "8", "--q", "5", "--method", "explicit"
    )
    assert time.monotonic() - start < 5
    assert code == 0
    assert rep["separating"] is True
    assert rep["size"] == 92


def test_oracle_brute_min(capsys):
    code, rep = run_json(capsys, "oracle", "brute-min", "--n", "3", "--q", "2")
    assert code == 0
    assert rep["minimum"] == 3
    assert len(rep["witness"]) == 3
    code, rep = run_json(
        capsys, "oracle", "brute-min", "--n", "3", "--q", "2", "--max", "2"
    )
    assert code == 1
    assert rep["minimum"] is None


def test_oracle_brute_min_too_large(capsys):
    code, out, err = run(capsys, "oracle", "brute-min", "--n", "4", "--q", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("adaptive", "--n", "2", "--q", "6", "--strategy", "inductive",
         "--oracle", "fixed:all"),
        ("bounds", "--n", "1", "--q", "3"),
        ("adaptive", "--n", "4", "--q", "3", "--strategy", "plane",
         "--oracle", "fixed:all"),
        ("adaptive", "--n", "3", "--q", "3", "--strategy", "nonsense",
         "--oracle", "fixed:all"),
        ("adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
         "--oracle", "fixed:1,2"),
        ("construct", "--n", "3", "--q", "10", "--method", "explicit"),
        ("oracle", "claim-count", "--n", "2", "--q", "3"),
    ],
)
def test_usage_and_validation_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_verify_rejects_a_header_dimension_below_two(capsys, tmp_path, n):
    path = tmp_path / "empty.txt"
    path.write_text(f"3 {n} 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: need n >= 2, got n={n}\n"


def test_verify_missing_file(capsys):
    code, out, err = run(capsys, "verify", "/nonexistent/sys.txt")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("adaptive", "--n", "14", "--q", "7", "--strategy", "inductive",
          "--oracle", "fixed:all"), "cap of 1000000"),
        (("adaptive", "--n", "14", "--q", "7", "--strategy", "inductive",
          "--oracle", "fixed:" + ",".join(["1"] + ["0"] * 13)), "cap of 1000000"),
        (("oracle", "brute-min", "--n", "18", "--q", "3"), "cap of 48"),
        (("adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
          "--oracle", "fixed:5,1,1"), "outside [0, 3)"),
        (("adaptive", "--n", "3", "--q", "4", "--strategy", "plane",
          "--oracle", "fixed:5,1,1"), "outside [0, 4)"),
        (("adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
          "--oracle", "fixed:-1,1,1"), "outside [0, 3)"),
        (("oracle", "brute-min", "--n", "3", "--q", "2", "--max", "-1"), "max_size must be >= 0"),
        (("oracle", "claim-count", "--n", "12", "--q", "3"), "cap of 2000000"),
        (("verify", "huge-q.txt"), "field order 1000000000000000003 above the configured cap"),
        (("adaptive", "--n", "100000", "--q", "3", "--strategy", "inductive",
          "--oracle", "fixed:all"), "cap of 1000000"),
        (("construct", "--n", "3000000", "--q", "3", "--method", "explicit"),
         "cap of 1000000"),
        (("adaptive", "--n", "3", "--q", "3", "--strategy", "random-lines:x",
          "--oracle", "fixed:all"), "unknown searcher 'random-lines:x'"),
        (("adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
          "--oracle", "fixed:"), "unknown oracle 'fixed:'"),
        (("adaptive", "--n", "3", "--q", "3", "--strategy", "plane",
          "--oracle", "fixed:1,,2"), "unknown oracle 'fixed:1,,2'"),
    ],
)
def test_oversized_or_out_of_range_input_is_one_line_error(
    capsys, tmp_path, monkeypatch, argv, message
):
    # a system over an order far above the field cap; factoring that order
    # by trial division would take minutes, so the cap must come first
    huge = 10**18 + 3
    (tmp_path / "huge-q.txt").write_text(
        f"{huge} 3 1\nq={huge} n=3 k=2 basis=[[1,0,0],[0,1,0]]\n"
    )
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    # every cap is checked before the work it bounds
    assert time.monotonic() - start < 10
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_replay_rejects_incomplete_transcript(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text('{"n": 3, "q": 3}')
    code, out, err = run(capsys, "replay", str(path))
    assert code == 2
    assert err == "error: transcript is missing key 'searcher'\n"


def test_bounds_for_a_large_prime_order(capsys):
    code, rep = run_json(capsys, "bounds", "--n", "3", "--q", "1000000007")
    assert code == 0
    assert rep["adaptive_upper"]["exact"] == "2000000013"


@pytest.mark.parametrize(
    "q,code,message",
    [
        (10**18 + 3, 0, ""),
        (PRIMALITY_BOUND, 2, f"error: primality is decided only below {PRIMALITY_BOUND}\n"),
    ],
)
def test_bounds_near_the_primality_bound(capsys, q, code, message):
    start = time.monotonic()
    got, out, err = run(capsys, "bounds", "--n", "3", "--q", str(q))
    assert time.monotonic() - start < 10
    assert (got, err) == (code, message)


def test_importing_the_cli_loads_no_module_a_command_may_not_need():
    # every qsearch process imports the CLI first, so what it loads is
    # paid at each start; dataclasses pulls in inspect, fractions decimal
    unwanted = ("dataclasses", "inspect", "fractions", "decimal", "csv")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = f"import qsearch.cli, sys; print(sorted(set({unwanted!r}) & set(sys.modules)))"
    got = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout == "[]\n", f"importing qsearch.cli loaded {got.stdout.strip()}"


# argv pieces for the fuzz test: every (n, q) in range is small enough to
# run in well under a second; the rest are zero, negative, non-prime-power,
# oversized or garbage values
_GARBAGE = ["-1", "0", "1", "1000", "x", "2.5", ""]
_INTS = st.sampled_from(["2", "3", "4", "6", "12", "1000000000000000003"] + _GARBAGE)
_DIMS = st.sampled_from(["2", "3", "30000000"] + _GARBAGE)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_LITERAL = st.builds(
    "q={} n={} k={} basis={}".format, _INTS, _INTS, _INTS, _JSON.map(json.dumps)
)
_QUERY_FILE = st.builds(
    lambda head, body: "\n".join([head, *body]) + "\n",
    st.builds("{} {} {}".format, _INTS, _INTS, _INTS) | st.text(max_size=8),
    st.lists(_LITERAL | st.text(max_size=12), max_size=4),
)
_TRANSCRIPT = st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(-1, 4),
        "q": st.sampled_from([-1, 0, 2, 3, 4, 6, 10**18 + 3]),
        "searcher": st.sampled_from(
            ["plane", "inductive", "two-round", "random-lines:2", "x"]
        ),
        "oracle": st.sampled_from(["adversary", "fixed:1,0,0", "fixed:a", "fixed:all"]),
        "entries": _JSON,
        "outcome": _JSON,
        "count": st.integers(-1, 9) | st.text(max_size=2),
    },
).map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=12)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_NQ = st.tuples(_opt("--n", _DIMS), _opt("--q", _INTS)).map(lambda t: t[0] + t[1])
_STRATEGIES = st.sampled_from(
    ["plane", "inductive", "two-round", "random-lines:3", "random-lines:x", "nonsense"]
)
_ORACLES = st.sampled_from(
    ["fixed:all", "adversary", "fixed:1,0,0", "fixed:1,2", "fixed:-1,0,0", "fixed:", "x"]
)
_FILES = ("system.txt", "game.json", "saved.json", "out.txt")
_ARGV = st.one_of(
    st.tuples(st.just(["adaptive"]), _NQ, _opt("--strategy", _STRATEGIES),
              _opt("--oracle", _ORACLES), _opt("--save", st.just("saved.json"))),
    st.tuples(st.just(["construct"]), _NQ,
              _opt("--method", st.sampled_from(["explicit", "random", "x"])),
              _opt("--seed", _INTS), _opt("--out", st.just("out.txt"))),
    st.tuples(st.just(["verify", "system.txt"])),
    st.tuples(st.just(["bounds"]), _NQ, st.sampled_from([[], ["--csv"], ["--json"]])),
    st.tuples(st.just(["oracle", "claim-count"]), _NQ),
    st.tuples(st.just(["oracle", "brute-min"]), _NQ, _opt("--max", _INTS),
              st.sampled_from([[], ["--all-dims"]])),
    st.tuples(st.just(["replay", "game.json"])),
    st.lists(st.sampled_from(["adaptive", "oracle", "--n", "3", "-x", ""]), max_size=3)
    .map(lambda a: (a,)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV, system=_QUERY_FILE, game=_TRANSCRIPT)
def test_cli_fuzz_ends_in_an_exit_code_never_a_traceback(
    capsys, tmp_path, argv, system, game
):
    (tmp_path / "system.txt").write_text(system)
    (tmp_path / "game.json").write_text(game)
    argv = [str(tmp_path / a) if a in _FILES else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1, err
