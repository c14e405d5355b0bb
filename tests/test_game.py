import json
import random
from functools import lru_cache
from math import comb

import pytest

from qsearch import cli, game, projspace, separating
from qsearch.projspace import (
    DimensionMismatch,
    Geometry,
    Subspace,
    WrongDimension,
    geometry,
)
from qsearch.game import (
    NO,
    YES,
    AdversaryOracle,
    Answer,
    BadAnnounce,
    FixedOracle,
    GameView,
    InconsistentOracle,
    InductiveSearcher,
    InternalInconsistency,
    PlaneSearcher,
    RandomLineSearcher,
    Transcript,
    TwoRoundSearcher,
    _narrow,
    _rank,
    _round,
    oracle_from_name,
    replay,
    run_game,
    searcher_from_name,
    sweep,
)
from qsearch.separating import coordinate_hyperplane, ratio_hyperplane

from pencil_reference import basis_extension, pencil_within


def sweep_max(searcher_name: str, n: int, q: int) -> int:
    geom = geometry(n, q)
    worst = 0
    for p in geom.points:
        t = run_game(searcher_from_name(searcher_name, n, q), FixedOracle(q, p), n, q)
        assert t.identified == p
        worst = max(worst, t.count)
    return worst


def test_plane_worst_case_frozen():
    assert sweep_max("plane", 3, 3) == 5  # 2q - 1 reached
    assert sweep_max("plane", 3, 4) == 7


def test_plane_needs_dimension_three():
    with pytest.raises(WrongDimension):
        searcher_from_name("plane", 4, 3)


def test_two_round_frozen_game_q2():
    t = run_game(TwoRoundSearcher(3, 2), FixedOracle(2, (1, 0, 1)), 3, 2)
    assert [e["verdict"] for e in t.entries] == ["NO", "YES", "NO"]
    assert t.count == 3
    assert t.identified == (1, 0, 1)


def test_two_round_frozen_game_q3():
    t = run_game(TwoRoundSearcher(3, 3), FixedOracle(3, (1, 1, 0)), 3, 3)
    assert t.count == 4
    assert t.identified == (1, 1, 0)


def test_two_round_frozen_game_n4():
    t = run_game(TwoRoundSearcher(4, 3), FixedOracle(3, (1, 1, 1, 1)), 4, 3)
    assert t.count == 7
    assert t.identified == (1, 1, 1, 1)


def test_two_round_count_formula():
    n, q = 4, 5
    geom = geometry(n, q)
    for p in list(geom.points)[::7]:
        t = run_game(TwoRoundSearcher(n, q), FixedOracle(q, p), n, q)
        nz = sum(1 for c in p if c)
        want = n if nz <= 1 else n + (nz - 1) * (q - 2)
        assert t.count == want
        assert t.identified == p


def test_inductive_within_bound():
    assert sweep_max("inductive", 2, 5) <= 5
    assert sweep_max("inductive", 4, 3) <= 7


def test_inductive_first_query_is_history_function():
    geom = geometry(3, 3)
    view0 = GameView(geom, 0, geom.full_mask)
    q1 = InductiveSearcher(3, 3).decide(view0)
    q2 = InductiveSearcher(3, 3).decide(view0)
    assert q1 == q2


PURITY_CASES = [
    (name, n, q)
    for n, q in ((3, 3), (3, 4), (4, 2), (2, 5))
    for name in ("plane", "inductive", "two-round", "random-lines:1")
    if name != "plane" or n == 3
]


@pytest.mark.parametrize("name,n,q", PURITY_CASES)
def test_searchers_are_pure_over_the_answer_tree(name, n, q):
    # the sweep walks every consistent YES/NO branch with one instance, so
    # after each backtrack its next node does not extend the last one; a
    # fresh instance must decide the same at every node
    searcher = searcher_from_name(name, n, q)

    class Checked:
        def decide(self, view):
            got = searcher.decide(view)
            assert got == searcher_from_name(name, n, q).decide(view)
            return got

    games = sweep(Checked(), n, q)
    assert [p for p, _, _ in games] == geometry(n, q).points
    assert all(found for _, _, found in games)
    descent = (q - 1) * (n - 1) + 1
    bound = {"plane": 2 * q - 1, "inductive": descent, "two-round": descent}
    # random lines stop once every hyperplane is asked: one per point
    assert max(c for _, c, _ in games) <= bound.get(name, len(games))


def per_point_games(searcher, n, q):
    """The sweep's oracle: one refereed game per hidden point."""
    out = []
    for p in geometry(n, q).points:
        t = run_game(searcher, FixedOracle(q, p), n, q)
        out.append((p, t.count, t.identified == p))
    return out


SWEEP_CASES = (
    [
        (name, n, q)
        for name in ("inductive", "two-round")
        for n in range(2, 6)
        for q in (2, 3, 4, 5, 7, 9)
        if (q**n - 1) // (q - 1) <= 10**4  # the grid of acceptance criterion 3
    ]
    + [("plane", 3, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [
        (f"random-lines:{seed}", n, q)
        for seed in range(3)
        for n, q in ((3, 3), (3, 4), (4, 2))
    ]
)


@pytest.mark.parametrize("name,n,q", SWEEP_CASES)
def test_sweep_matches_per_point_games(name, n, q):
    searcher = searcher_from_name(name, n, q)
    assert sweep(searcher, n, q) == per_point_games(searcher, n, q)


# The searchers as first written, deciding from the history of (query,
# answer) pairs: the test oracles for the searchers that read the mask.


def _plane_by_history(n, q, geom, history, cand):
    if cand.bit_count() == 1:
        return ("announce", geom.lowest_point(cand))
    pencil = geom.pencil(Subspace.span(q, 3, [geom.points[0]]))
    got_yes = any(a.yes for _, a in history)
    if not got_yes and len(history) < q:
        return ("ask", pencil[len(history)])
    return ("ask", Subspace.span(q, 3, [geom.lowest_point(cand)]))


@lru_cache(maxsize=None)
def _pencil_round(ctx, known_not):
    """One round of the inductive descent inside ctx as first written, by
    pencils and lifts: the test oracle for game._round.  It returns the
    pencil axis u, the pencil members to ask about in order, each of them
    lifted to a hyperplane of the full space with its mask, and the member
    inferred when every ask gets NO.  known_not, when given, is a hyperplane
    of ctx known not to contain the hidden line; it is skipped, so only q-1
    members are asked."""
    q, n = ctx.q, ctx.n
    base = known_not if known_not is not None else ctx
    u = Subspace(q, n, base.basis[: ctx.k - 2])
    *to_ask, fallback = [w for w in pencil_within(ctx, u) if w != known_not]
    # a complement of ctx lifts each member w to the hyperplane of the
    # full space whose intersection with ctx is exactly w
    comp = tuple(basis_extension(ctx, Subspace.full(q, n).basis))
    asks = tuple(Subspace.span(q, n, w.basis + comp) for w in to_ask)
    masks = tuple(map(geometry(n, q).mask, asks))
    return u, tuple(to_ask), asks, masks, fallback


def _inductive_by_history(n, q, geom, history, cand):
    if cand.bit_count() == 1:
        return ("announce", geom.lowest_point(cand))
    ctx, known_not, j = Subspace.full(q, n), None, 0
    u, to_ask, asks, _, fallback = _pencil_round(ctx, known_not)
    for _, ans in history:
        if not ans.yes and j + 1 < len(to_ask):
            j += 1
            continue
        if ans.yes:
            ctx, known_not = to_ask[j], (None if j == 0 and known_not is None else u)
        else:
            ctx, known_not = fallback, u
        if ctx.k == 1:
            break
        j = 0
        u, to_ask, asks, _, fallback = _pencil_round(ctx, known_not)
    if ctx.k == 1:
        raise InternalInconsistency("plan finished with more than one consistent point")
    return ("ask", asks[j])


def _two_round_by_history(n, q, geom, history, cand):
    if len(history) < n:
        return ("ask", coordinate_hyperplane(q, n, len(history)))
    nz = [i for i in range(n) if not history[i][1].yes]
    if q > 2 and len(nz) > 1:
        pos, lam = divmod(len(history) - n, q - 2)
        if pos < len(nz) - 1:
            return ("ask", ratio_hyperplane(q, n, nz[0], nz[1 + pos], lam + 1))
    return ("announce", geom.lowest_point(cand))


BY_HISTORY = {
    "plane": _plane_by_history,
    "inductive": _inductive_by_history,
    "two-round": _two_round_by_history,
}


def _walk_both(name, n, q, respond):
    """Play the searcher and its history-reading oracle side by side from
    the root, tracking the history and the candidate mask, and assert the
    same decision at every node; respond(query, history) lists the answers
    to follow.  Returns the number of nodes."""
    geom = geometry(n, q)
    searcher, oracle = searcher_from_name(name, n, q), BY_HISTORY[name]
    stack, nodes = [((), geom.full_mask)], 0
    while stack:
        history, cand = stack.pop()
        assert len(history) <= len(geom.points)
        got = searcher.decide(GameView(geom, len(history), cand))
        assert got == oracle(n, q, geom, history, cand), (name, n, q, history)
        nodes += 1
        if got[0] == "ask":
            for ans in respond(got[1], history):
                sub = _narrow(geom, cand, got[1], ans)
                if sub:
                    stack.append((history + ((got[1], ans),), sub))
    return nodes


DIFF_CASES = [case for case in SWEEP_CASES if case[0] in BY_HISTORY]


@pytest.mark.parametrize("name,n,q", DIFF_CASES)
def test_searchers_decide_as_the_history_readers_on_every_node(name, n, q):
    points = len(geometry(n, q).points)
    # each point's game ends in its own announcement, a node of its own
    assert _walk_both(name, n, q, lambda query, history: (NO, YES)) >= points


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_searchers_decide_as_the_history_readers_against_the_adversary(q):
    for name in BY_HISTORY:
        adversary = AdversaryOracle(q)
        nodes = _walk_both(name, 3, q, lambda query, history: (adversary.answer(query, history),))
        assert nodes >= 2 * q  # 2q-1 queries and the announcement


@pytest.mark.parametrize("n,q", ((6, 7), (5, 9), (7, 5), (3, 97), (2, 1021)))
def test_closed_form_rounds_match_the_pencil_plan(n, q):
    # every round of the plan, one at a time from the root, at sizes where
    # the walk over every answer-tree node is too slow: the closed-form state
    # describes the pencil plan's context, and the two rounds ask the same
    # hyperplanes with the same masks and lead to the same next rounds
    units = Subspace.full(q, n).basis
    stack, rounds = [((n - 1, n - 1, 1, False), Subspace.full(q, n), None)], 0
    while stack:
        state, ctx, known_not = stack.pop()
        m, z, lam, known = state
        last = ctx.basis[-1]
        assert ctx.k == m + 1 and ctx.basis[:m] == units[:m], (state, ctx)
        assert max(i for i, c in enumerate(last) if c) == z and last[z] == lam, (state, ctx)
        assert known == (known_not is not None)
        if not m:
            continue
        asks, fallback = _round(n, q, state)
        u, to_ask, lifts, masks, last_member = _pencil_round(ctx, known_not)
        assert [h for h, _, _ in asks] == list(lifts)
        assert [mask for _, mask, _ in asks] == list(masks)
        for j, ((_, _, nxt), w) in enumerate(zip(asks, to_ask)):
            stack.append((nxt, w, None if j == 0 and known_not is None else u))
        stack.append((fallback, last_member, u))
        rounds += 1
    # at each m one round has known unset, and each round at m+1 leads to q
    # with known set, so m has (q^(n-m) - 1)/(q - 1) rounds
    assert rounds == sum((q ** (n - m) - 1) // (q - 1) for m in range(1, n))


@pytest.mark.parametrize("name", ("inductive", "two-round"))
@pytest.mark.parametrize("n,q", ((5, 5), (4, 9)))
def test_a_cold_sweep_makes_no_rref_call(name, n, q, monkeypatch):
    # the plans ask coordinate and ratio hyperplanes, built in echelon form;
    # the inductive sweep caches one mask per hyperplane it asks, at most
    # the n coordinate and C(n,2)(q-1) ratio hyperplanes
    geom = Geometry(n, q)
    monkeypatch.setattr(game, "geometry", lambda n, q: geom)
    _round.cache_clear()
    separating.ratio_hyperplane.cache_clear()
    calls, rref = [], projspace.rref
    monkeypatch.setattr(projspace, "rref", lambda q, rows: calls.append(q) or rref(q, rows))
    games = sweep(searcher_from_name(name, n, q), n, q)
    assert all(found for _, _, found in games)
    assert len(calls) == 0
    if name == "inductive":
        assert len(geom._mask_cache) <= n + comb(n, 2) * (q - 1)


def _adversary_roster_without_rref(n, q, monkeypatch):
    """Play the CLI searchers against the adversary in a fresh geometry and
    return the fewest queries spent, asserting that no game calls rref: the
    plane searcher's centre and the plans are written down from normals, and
    the adversary's ranks are echelon inserts."""
    geom = Geometry(n, q)
    monkeypatch.setattr(game, "geometry", lambda n, q: geom)
    _round.cache_clear()
    separating.coordinate_hyperplane.cache_clear()
    separating.ratio_hyperplane.cache_clear()
    calls, rref = [], projspace.rref
    monkeypatch.setattr(projspace, "rref", lambda q, rows: calls.append(q) or rref(q, rows))
    names = ("plane", "inductive", "two-round", "random-lines:0")
    counts = []
    for name in names if n == 3 else names[1:]:
        t = run_game(searcher_from_name(name, n, q), AdversaryOracle(q, n), n, q)
        assert t.identified is not None
        counts.append(t.count)
    assert len(calls) == 0
    return min(counts)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_adversary_games_make_no_rref_call(q, monkeypatch):
    assert _adversary_roster_without_rref(3, q, monkeypatch) >= 2 * q - 1


@pytest.mark.parametrize("n,q", ((4, 3), (5, 3), (6, 2)))
def test_adversary_games_in_higher_dimension_make_no_rref_call(n, q, monkeypatch):
    # every searcher spends at least the inductive descent's count here
    assert _adversary_roster_without_rref(n, q, monkeypatch) == (q - 1) * (n - 1) + 1


@pytest.mark.parametrize("n,q", ((3, 9), (4, 5), (6, 3)))
def test_a_rank_reads_at_most_n_points(n, q, monkeypatch):
    # each next point is the lowest candidate off the span so far, so one
    # rank reads one point per dimension, whatever the mask holds
    geom = geometry(n, q)
    reads, point = [], geom.point
    monkeypatch.setattr(geom, "point", lambda i: reads.append(i) or point(i))
    rng = random.Random(f"rank:{n}:{q}")
    bits = geom.full_mask.bit_length()
    masks = [geom.full_mask, geom.full_mask & ~1, 1 << bits - 1]
    masks += [rng.getrandbits(bits) | 1 << rng.randrange(bits) for _ in range(20)]
    masks += [geom.mask(coordinate_hyperplane(q, n, i)) for i in range(n)]
    for m in masks:
        reads.clear()
        r = _rank(geom, m)
        assert len(reads) == r <= n
        # the points read are independent and span every point of the mask
        span = Subspace.span(q, n, [point(i) for i in reads])
        assert span.k == r and geom.mask(span) & m == m


def _forced_length(n, q):
    """The fewest queries that any searcher can spend against the adversary,
    by a BFS over candidate masks: a move is a proper subspace that splits
    the candidates, deduplicated by mask, and leads to the one successor the
    adversary's answer leaves; the game ends at a lone candidate."""
    geom = geometry(n, q)
    verdict = AdversaryOracle(q, n).verdict
    moves = {geom.mask(s) for k in range(1, n) for s in geom.subspaces(k)}
    level, seen, depth = [geom.full_mask], {geom.full_mask}, 0
    while True:
        depth += 1
        nxt = []
        for cand in level:
            for m in moves:
                if cand & m and cand & ~m:
                    sub = cand & m if verdict(cand, m).yes else cand & ~m
                    if sub & (sub - 1) == 0:
                        return depth
                    if sub not in seen:
                        seen.add(sub)
                        nxt.append(sub)
        level = nxt


@pytest.mark.parametrize("n,q", ((3, 2), (3, 3), (4, 2)))
def test_the_adversary_forces_the_descent_count_against_every_searcher(n, q, monkeypatch):
    # 2q-1 at n = 3, and (q-1)(n-1)+1, the inductive searcher's count, at
    # (4,2): no searcher at all does better.  Ranks recur across the
    # masks, so they are memoized for the search
    monkeypatch.setattr(game, "_rank", lru_cache(maxsize=None)(_rank))
    assert _forced_length(n, q) == (q - 1) * (n - 1) + 1


def test_claim_count_makes_no_rref_call(capsys, monkeypatch):
    # every pencil of the count is written down from the normals of its axis
    geom = Geometry(3, 8)
    for module in (cli, separating):
        monkeypatch.setattr(module, "geometry", lambda n, q: geom)
    separating._pencil_signatures.cache_clear()
    calls, rref = [], projspace.rref
    monkeypatch.setattr(projspace, "rref", lambda q, rows: calls.append(q) or rref(q, rows))
    assert cli.main(["oracle", "claim-count", "--n", "3", "--q", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(calls) == 0


class Stubborn:
    """Wastes its queries on purpose: announces a lone candidate, and
    otherwise asks z = 0 again, which splits nothing after the first time."""

    name = "stubborn"

    def decide(self, view):
        if view.candidates.bit_count() == 1:
            return ("announce", view.geom.lowest_point(view.candidates))
        n, q = view.geom.n, view.geom.q
        return ("ask", coordinate_hyperplane(q, n, n - 1))


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 3)])
def test_sweep_aborts_games_at_the_point_count(n, q):
    games = sweep(Stubborn(), n, q)
    assert games == per_point_games(Stubborn(), n, q)
    points = len(geometry(n, q).points)
    aborted = [c for _, c, found in games if not found]
    assert aborted and set(aborted) == {points}
    # a game is aborted, not refereed, once the point count is spent
    p = next(p for p, _, found in games if not found)
    t = run_game(Stubborn(), FixedOracle(q, p), n, q)
    assert t.outcome == {"aborted": "query-limit"} and t.identified is None
    assert t.count == len(t.entries) == points
    # over a line z = 0 is one point, identified after one query; in the
    # plane it holds four, and every game aborts
    assert {(c, found) for _, c, found in games if found} == (
        {(1, True)} if n == 2 else set()
    )


class Misbehaving:
    """Broken on purpose: asks z = 0, which leaves out point 0, then in each
    branch either announces with candidates to spare or asks the whole
    space, as moves[yes] says."""

    name = "misbehaving"

    def __init__(self, moves):
        self.moves = moves

    def decide(self, view):
        geom = view.geom
        z0 = coordinate_hyperplane(geom.q, geom.n, geom.n - 1)
        if not view.asked:
            return ("ask", z0)
        yes = view.candidates & ~geom.mask(z0) == 0
        if self.moves[yes] == "announce":
            return ("announce", geom.lowest_point(view.candidates))
        return ("ask", Subspace.full(geom.q, geom.n))


@pytest.mark.parametrize(
    "moves", [("announce", "announce"), ("announce", "full"), ("full", "announce")]
)
def test_sweep_raises_the_error_the_first_game_meets(moves):
    # point 0 lies on the NO branch, so the per-point games meet the NO
    # branch's error before the YES branch's
    with pytest.raises((BadAnnounce, WrongDimension)) as first:
        per_point_games(Misbehaving(moves), 3, 3)
    with pytest.raises((BadAnnounce, WrongDimension)) as swept:
        sweep(Misbehaving(moves), 3, 3)
    assert type(swept.value) is type(first.value)
    assert str(swept.value) == str(first.value)


MASK_CASES = [("inductive", n, q) for n, q in ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2))]
MASK_CASES += [("plane", 3, q) for q in (2, 3)]


@pytest.mark.parametrize("name,n,q", MASK_CASES)
def test_every_candidate_mask_gets_an_announcement_or_a_split(name, n, q):
    # any nonempty mask, reachable or not: a lone candidate is announced,
    # and otherwise the query leaves candidates on both sides.  So the
    # inductive plan never descends to a point with candidates to spare,
    # and its InternalInconsistency guard cannot fire
    geom = geometry(n, q)
    searcher = searcher_from_name(name, n, q)
    for cand in range(1, geom.full_mask + 1):
        kind, got = searcher.decide(GameView(geom, 0, cand))
        if cand & (cand - 1) == 0:
            assert (kind, got) == ("announce", geom.lowest_point(cand))
        else:
            m = geom.mask(got)
            assert kind == "ask" and cand & m and cand & ~m, (cand, got)


def test_random_lines_searcher_identifies():
    for seed in range(5):
        t = run_game(RandomLineSearcher(3, 3, seed), FixedOracle(3, (1, 2, 2)), 3, 3)
        assert t.identified == (1, 2, 2)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_adversary_forces_lower_bound(q):
    for name in ("plane", "inductive", "random-lines:3"):
        t = run_game(searcher_from_name(name, 3, q), AdversaryOracle(q), 3, q)
        assert t.identified is not None
        assert t.count >= 2 * q - 1, (name, q, t.count)


def test_adversary_is_stateless():
    o = AdversaryOracle(3)
    line = Subspace.span(3, 3, [(1, 0, 0), (0, 1, 0)])
    a1 = o.answer(line, ())
    a2 = o.answer(line, ())
    assert a1 == a2


def test_adversary_answers_a_point_query_plainly():
    o = AdversaryOracle(3)
    point_query = Subspace.span(3, 3, [(1, 1, 1)])
    assert o.answer(point_query, ()) is NO
    assert NO.volunteered is None is YES.volunteered
    # with the candidates a line and one point off it, that point is the
    # one whose denial would leave them collinear; a point of the line is not
    geom = o.geom
    line = Subspace.span(3, 3, [(1, 0, 0), (0, 1, 0)])
    cand = geom.mask(line) | geom.mask(point_query)
    assert o.verdict(cand, geom.mask(point_query)) is YES
    assert o.verdict(cand, geom.mask(Subspace.span(3, 3, [(1, 0, 0)]))) is NO


def test_adversary_refuses_a_query_of_another_space():
    o = AdversaryOracle(3)
    with pytest.raises(DimensionMismatch, match=r"GF\(5\)\^3 subspace in PG\(2, 3\)"):
        o.answer(Subspace.span(5, 3, [(1, 0, 0), (0, 1, 0)]), ())
    with pytest.raises(DimensionMismatch, match=r"GF\(3\)\^4 subspace in PG\(2, 3\)"):
        o.answer(Subspace.span(3, 4, [(1, 0, 0, 0)]), ())


class PointProber:
    """The plane searcher after a first point question."""

    name = "point-prober"

    def __init__(self, q):
        self.inner = PlaneSearcher(q)

    def decide(self, view):
        if not view.asked:
            return ("ask", Subspace.span(view.geom.q, 3, [(1, 1, 1)]))
        return self.inner.decide(view)


def test_a_point_prober_transcript_holds_plain_verdicts():
    t = run_game(PointProber(3), AdversaryOracle(3), 3, 3)
    assert t.identified is not None and t.count >= 5
    assert t.entries[0]["verdict"] == "NO"
    assert all(set(e) == {"query", "verdict"} for e in t.entries)


def _uncovered(geom, lines):
    cov = 0
    for ln in lines:
        cov |= geom.mask(ln)
    return geom.full_mask & ~cov


def _line_completions(geom, lines):
    """Lines h such that lines + [h] cover every point of the plane, by a
    filter of every line in basis order."""
    unc = _uncovered(geom, lines)
    lines = sorted(geom.subspaces(2), key=lambda s: s.basis)
    return [ln for ln in lines if geom.mask(ln) & unc == unc]


@pytest.mark.parametrize("name", ("plane", "inductive", "point-prober"))
def test_adversary_games_build_linearly_many_masks(name, monkeypatch):
    # a game costs O(q) line masks, not the q^2 + q + 1 of every line
    q = 101
    geom = Geometry(3, q)
    monkeypatch.setattr(game, "geometry", lambda n, q: geom)
    s = PointProber(q) if name == "point-prober" else searcher_from_name(name, 3, q)
    t = run_game(s, AdversaryOracle(q), 3, q)
    assert t.identified is not None and t.count >= 2 * q - 1
    assert len(geom._mask_cache) <= 4 * (q + 1), len(geom._mask_cache)


def test_a_plane_sweep_caches_no_point_mask(monkeypatch):
    # the plane searcher ends each line by asking its points one at a time;
    # cached, those P point masks would hold P^2 bits that no cap bounds
    q = 13
    geom = Geometry(3, q)
    monkeypatch.setattr(game, "geometry", lambda n, q: geom)
    games = sweep(PlaneSearcher(q), 3, q)
    assert max(count for _, count, _ in games) == 2 * q - 1
    assert [s for s in geom._mask_cache if s.k == 1] == []


@pytest.mark.parametrize("n,q", ((3, 9), (4, 4), (5, 3)))
def test_a_canonical_point_is_its_own_echelon_basis(n, q):
    # the plane searcher asks its probe as Subspace(q, n, (p,))
    for p in geometry(n, q).points:
        probe = Subspace(q, n, (p,))
        assert probe == Subspace.span(q, n, [p])
        assert probe.literal() == Subspace.span(q, n, [p]).literal()


class _ReplayAdversary:
    """The adversary as first written, the test oracle for AdversaryOracle:
    it replays the history into the list of declared lines and a committed
    flag, and answers from those.  It answered a point question before any
    commitment by volunteering a line, where AdversaryOracle answers plainly;
    the searchers it is compared with never ask one there, and it asserts
    so."""

    name = "adversary"

    def __init__(self, q):
        self.q = q
        self.geom = geometry(3, q)

    def _replay(self, history):
        geom = self.geom
        declared = []
        committed = False
        cand = geom.full_mask
        for qry, ans in history:
            cand = _narrow(geom, cand, qry, ans)
            if not committed:
                if ans.yes:
                    committed = True
                else:
                    declared.append(qry)
        return declared, committed, cand

    def answer(self, query, history):
        declared, committed, cand = self._replay(history)
        geom = self.geom
        if committed:
            m = geom.mask(query)
            if cand & ~m == 0:
                return Answer(True)
            if cand.bit_count() >= 2:
                return Answer(False)
            return Answer(bool(cand & m))
        assert query.k == 2, f"it would volunteer a line for {query.literal()}"
        return Answer(bool(_line_completions(geom, declared + [query])))


class RandomProber:
    """Asks a seeded random point or line that splits the candidates, drawn
    afresh from the seed and the game state at each decision."""

    def __init__(self, seed):
        self.seed = seed
        self.name = f"prober:{seed}"

    def decide(self, view):
        cand = view.candidates
        if cand.bit_count() == 1:
            return ("announce", view.geom.lowest_point(cand))
        rng = random.Random(f"{self.seed}:{view.asked}:{cand}")
        pool = view.geom.subspaces(1) + view.geom.subspaces(2)
        splits = [s for s in pool if 0 != cand & view.geom.mask(s) != cand]
        return ("ask", rng.choice(splits))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_adversary_matches_the_replay_adversary(q):
    # the searchers of the CLI
    names = ("plane", "inductive", "two-round")
    searchers = [searcher_from_name(name, 3, q) for name in names]
    searchers += [RandomLineSearcher(3, q, seed) for seed in range(25)]
    for searcher in searchers:
        got = run_game(searcher, AdversaryOracle(q), 3, q)
        want = run_game(searcher, _ReplayAdversary(q), 3, q)
        assert got.to_json() == want.to_json(), searcher.name


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_random_probers_spend_at_least_2q_minus_1(q):
    # they also ask points while the candidates span the plane
    for seed in range(40):
        t = run_game(RandomProber(f"{q}:{seed}"), AdversaryOracle(q), 3, q)
        assert t.identified is not None and t.count >= 2 * q - 1, (seed, t.count)


def test_transcript_json_round_trip():
    t = run_game(PlaneSearcher(3), FixedOracle(3, (1, 0, 2)), 3, 3)
    back = Transcript.from_json(t.to_json())
    assert back == t
    payload = json.loads(t.to_json())
    assert payload["outcome"] == {"identified": [1, 0, 2]}
    assert all(e["verdict"] in ("YES", "NO") for e in payload["entries"])
    assert payload["count"] == len(payload["entries"])


def test_replay_matches():
    t = run_game(PlaneSearcher(4), FixedOracle(4, (1, 3, 2)), 3, 4)
    same, fresh = replay(t)
    assert same
    assert fresh.to_json() == t.to_json()


def test_replay_detects_divergence():
    t = run_game(PlaneSearcher(3), FixedOracle(3, (1, 0, 0)), 3, 3)
    tampered = Transcript(
        n=t.n,
        q=t.q,
        searcher=t.searcher,
        oracle="fixed:1,0,1",
        entries=t.entries,
        outcome=t.outcome,
        count=t.count,
    )
    same, _ = replay(tampered)
    assert not same


def test_fixed_oracle_normalizes():
    o = FixedOracle(3, (2, 1, 0))
    assert o.point == (1, 2, 0)
    assert o.name == "fixed:1,2,0"


def test_fixed_oracle_answers_from_the_query_mask():
    o = FixedOracle(3, (2, 1, 0))
    for s in geometry(3, 3).subspaces(2):
        assert o.answer(s, ()).yes == s.contains((1, 2, 0))
    with pytest.raises(DimensionMismatch):
        o.answer(Subspace.span(3, 4, [(1, 0, 0, 0)]), ())


def test_registry_errors():
    with pytest.raises(ValueError):
        searcher_from_name("nonsense", 3, 3)
    with pytest.raises(ValueError):
        oracle_from_name("fixed:all", 3, 3)
    with pytest.raises(DimensionMismatch):
        oracle_from_name("fixed:1,0", 3, 3)
    assert oracle_from_name("adversary", 4, 2).geom is geometry(4, 2)
    for bad in ("fixed:5,1,1", "fixed:-1,1,1", "fixed:1,3,0"):
        with pytest.raises(ValueError, match="outside"):
            oracle_from_name(bad, 3, 3)


@pytest.mark.parametrize(
    "kind,name",
    [
        ("searcher", "random-lines:x"),
        ("searcher", "random-lines:"),
        ("oracle", "fixed:"),
        ("oracle", "fixed:1,,2"),
        ("oracle", "fixed:all"),
    ],
)
def test_registry_error_names_the_input(kind, name):
    # not int()'s "invalid literal", which does not say which option was bad
    lookup = searcher_from_name if kind == "searcher" else oracle_from_name
    with pytest.raises(ValueError) as exc:
        lookup(name, 3, 3)
    assert str(exc.value) == f"unknown {kind} {name!r}"
    assert exc.value.__suppress_context__


_GAME = {"n": 3, "q": 3, "searcher": "plane", "oracle": "fixed:1,0,0",
         "entries": [], "outcome": {}, "count": 0}


@pytest.mark.parametrize(
    "doc,problem",
    [
        ({"n": 3, "q": 3}, "'searcher'"),
        ({"q": 3, "searcher": "plane", "oracle": "fixed:1,0,0", "entries": [],
          "outcome": {}, "count": 0}, "'n'"),
        ({"n": 1, "q": 3, "searcher": "plane", "oracle": "fixed:1", "entries": [],
          "outcome": {}, "count": 0}, "n=1"),
        ({"n": 3, "q": 3, "searcher": "plane", "oracle": "fixed:1,0,0",
          "entries": 5, "outcome": {}, "count": 0}, "'entries'"),
        ([3, 3], "object"),
        # a JSON boolean is an int to isinstance, but no count or order
        ({**_GAME, "count": True}, "key 'count' must be a int"),
        ({**_GAME, "n": True}, "key 'n' must be a int"),
        ({**_GAME, "q": False}, "key 'q' must be a int"),
    ],
)
def test_transcript_from_json_rejects_malformed(doc, problem):
    with pytest.raises(ValueError, match=problem):
        Transcript.from_json(json.dumps(doc))


def test_bad_announce_guard():
    class Eager:
        name = "eager"

        def decide(self, view):
            return ("announce", (1, 0, 0))

    with pytest.raises(BadAnnounce):
        run_game(Eager(), FixedOracle(3, (1, 0, 0)), 3, 3)


def test_inconsistent_oracle_guard():
    class Liar:
        name = "liar"

        def answer(self, query, history):
            return Answer(yes=False)

    class PencilSweeper:
        # asks every line through one point; NO to all of them is a
        # contradiction since together they cover the plane
        name = "pencil-sweeper"

        def decide(self, view):
            x = view.geom.points[0]
            pencil = view.geom.pencil(Subspace.span(view.geom.q, 3, [x]))
            return ("ask", pencil[view.asked])

    with pytest.raises(InconsistentOracle):
        run_game(PencilSweeper(), Liar(), 3, 2)


def test_query_dimension_guards():
    class FullSpaceAsker:
        name = "full"

        def decide(self, view):
            return (
                "ask",
                Subspace.span(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            )

    with pytest.raises(WrongDimension):
        run_game(FullSpaceAsker(), FixedOracle(2, (1, 0, 0)), 3, 2)

    class WrongField:
        name = "wrong-field"

        def decide(self, view):
            return ("ask", Subspace.span(5, 3, [(1, 0, 0)]))

    with pytest.raises(DimensionMismatch):
        run_game(WrongField(), FixedOracle(2, (1, 0, 0)), 3, 2)
    with pytest.raises(DimensionMismatch):
        sweep(WrongField(), 3, 2)
    # the referee's game and the oracle's point live in different spaces
    with pytest.raises(DimensionMismatch, match=r"GF\(3\)\^3 subspace in PG\(3, 3\)"):
        run_game(PlaneSearcher(3), FixedOracle(3, (1, 0, 0, 0)), 3, 3)
