"""Adaptive search for a hidden 1-dimensional subspace of GF(q)^n.

A searcher asks subspace membership queries ("is the hidden line inside
this subspace?"); an oracle answers yes or no.  The game runner `run_game`
tracks the set of points still consistent with all answers and referees
the final announcement.  `sweep` plays a searcher against every hidden
point at once by walking its YES/NO answer tree, with the same referee
rules.

Searchers and oracles are stateless, so any finished game can be replayed
bit for bit from its transcript.  A searcher is a pure function of the
number of queries asked and the candidate mask; an oracle is a pure
function of the query and the history of (query, answer) pairs before it.
"""

from __future__ import annotations

import heapq
import json
import random
from functools import lru_cache

from .projspace import (
    DimensionMismatch,
    Geometry,
    Subspace,
    WrongDimension,
    geometry,
    normalize,
)
from .record import Record, _set
from .separating import coordinate_hyperplane, ratio_hyperplane


class InconsistentOracle(RuntimeError):
    """The answers rule out every point."""


class BadAnnounce(RuntimeError):
    """Announcement made while uncertain, or of an inconsistent point."""


class InternalInconsistency(RuntimeError):
    """An oracle invariant failed; indicates a bug, not a bad input."""


class Answer(Record):
    __slots__ = _fields = ("yes", "volunteered")

    def __init__(self, yes: bool, volunteered: None = None):
        _set(self, "yes", yes)
        # always None: the benchmark's tracer reads it, so it goes with the
        # benchmark change that stops reading it (ROADMAP item 7)
        _set(self, "volunteered", volunteered)


# the two bare verdicts, shared: answers are read-only values
NO, YES = Answer(False), Answer(True)


class GameView(Record):
    """What a searcher sees: the number of queries asked so far, and the
    bitmask of points still consistent with every answer.  That mask is all
    the answers tell, so a searcher decides from it alone."""

    __slots__ = _fields = ("geom", "asked", "candidates")

    def __init__(self, geom: Geometry, asked: int, candidates: int):
        _set(self, "geom", geom)
        _set(self, "asked", asked)
        _set(self, "candidates", candidates)


class Transcript(Record):
    """Self-contained record of one game.  Entries hold the asked queries
    with their verdicts; the outcome is either {"identified": point} or
    {"aborted": reason}."""

    __slots__ = _fields = ("n", "q", "searcher", "oracle", "entries", "outcome",
                           "count")

    def __init__(self, n: int, q: int, searcher: str, oracle: str, entries: tuple,
                 outcome: dict, count: int):
        _set(self, "n", n)
        _set(self, "q", q)
        _set(self, "searcher", searcher)
        _set(self, "oracle", oracle)
        _set(self, "entries", entries)
        _set(self, "outcome", outcome)
        _set(self, "count", count)

    # the JSON type of each field, in _fields order
    _TYPES = (int, int, str, str, list, dict, int)

    def to_json(self) -> str:
        return json.dumps(dict(zip(self._fields, self._values())), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "Transcript":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("transcript must be a JSON object")
        for key, kind in zip(Transcript._fields, Transcript._TYPES):
            if key not in d:
                raise ValueError(f"transcript is missing key {key!r}")
            if type(d[key]) is not kind:  # a JSON boolean is no int
                raise ValueError(f"transcript key {key!r} must be a {kind.__name__}")
        if d["n"] < 2:
            raise ValueError(f"transcript has n={d['n']}, need n >= 2")
        d["entries"] = tuple(d["entries"])
        return Transcript(*[d[key] for key in Transcript._fields])

    @property
    def identified(self) -> tuple[int, ...] | None:
        got = self.outcome.get("identified")
        return tuple(got) if got is not None else None


def _rule(geom: Geometry, decision, cand: int, asked: int):
    """Referee one decision of a searcher that has asked `asked` queries and
    left the candidates `cand`: ("identified", point) for a sound
    announcement, ("ask", query) for a legal query, or ("aborted", None)
    once as many queries as there are points are spent (asking every point
    one by one always suffices).  A query of another space is left to
    `Geometry.mask`, which every asked query reaches."""
    kind, payload = decision
    if kind == "announce":
        p = normalize(geom.q, payload)
        if cand.bit_count() != 1 or 1 << geom.rank(p) != cand:
            raise BadAnnounce(f"announced {p} with {cand.bit_count()} consistent points")
        return ("identified", p)
    qry: Subspace = payload
    if not 1 <= qry.k <= geom.n - 1:
        raise WrongDimension(f"query dimension {qry.k} outside [1, {geom.n - 1}]")
    if asked >= geom.full_mask.bit_length():
        return ("aborted", None)
    return ("ask", qry)


def run_game(searcher, oracle, n: int, q: int) -> Transcript:
    """Referee one game by `_rule`.  Announcing costs nothing.  The history
    of (query, answer) pairs is kept for the oracle only."""
    geom = geometry(n, q)
    cand = geom.full_mask
    history: tuple[tuple[Subspace, Answer], ...] = ()
    entries: list[dict] = []
    while True:
        view = GameView(geom, len(history), cand)
        kind, got = _rule(geom, searcher.decide(view), cand, len(history))
        if kind == "identified":
            outcome = {"identified": list(got)}
            break
        if kind == "aborted":
            outcome = {"aborted": "query-limit"}
            break
        ans = oracle.answer(got, history)
        cand = _narrow(geom, cand, got, ans)
        if cand == 0:
            raise InconsistentOracle(f"no point is consistent after {got.literal()}")
        history += ((got, ans),)
        entries.append({"query": got.literal(), "verdict": "YES" if ans.yes else "NO"})
    return Transcript(
        n=n,
        q=q,
        searcher=getattr(searcher, "name", searcher.__class__.__name__),
        oracle=getattr(oracle, "name", oracle.__class__.__name__),
        entries=tuple(entries),
        outcome=outcome,
        count=len(history),
    )


def sweep(searcher, n: int, q: int) -> list[tuple]:
    """Every game of the searcher against a truthful oracle at once:
    (point, count, identified) for each point, in geom.points order, with
    the same counts and outcomes as one run_game per point.

    The walk visits each node of the searcher's YES/NO answer tree once,
    so decide runs once per distinct answer prefix; an empty branch is no
    game and is pruned.  The walk is iterative, since games can be as deep
    as there are points: pending nodes wait in a heap keyed by their lowest
    candidate index.  Pending nodes are disjoint, so keys never tie, and a
    child's key is never below its parent's, so nodes are visited in the
    order the per-point games first reach them: the first node that raises
    raises the error those games would meet first."""
    geom = geometry(n, q)
    out: list = [None] * geom.full_mask.bit_length()
    pending = [(0, 0, geom.full_mask)]  # (lowest candidate, asked, candidates)
    while pending:
        low, asked, cand = heapq.heappop(pending)
        view = GameView(geom, asked, cand)
        kind, got = _rule(geom, searcher.decide(view), cand, asked)
        if kind == "ask":
            m = geom.mask(got)
            for sub in (cand & ~m, cand & m):
                if sub:
                    key = (sub & -sub).bit_length() - 1
                    heapq.heappush(pending, (key, asked + 1, sub))
        elif kind == "identified":
            out[low] = (got, asked, True)
        else:  # aborted: every candidate's game stops here
            while cand:
                i = (cand & -cand).bit_length() - 1
                out[i] = (geom.point(i), asked, False)
                cand &= cand - 1
    return out


def _narrow(geom: Geometry, cand: int, query: Subspace, ans: Answer) -> int:
    """The candidates that stay consistent with one answer to a query."""
    m = geom.mask(query)
    return (cand & m) if ans.yes else (cand & ~m)


# ---------------------------------------------------------------------------
# searchers
# ---------------------------------------------------------------------------


class PlaneSearcher:
    """Dimension-3 strategy: sweep q of the q+1 lines through a fixed point,
    then probe the surviving candidates one point at a time.  At most 2q-1
    queries against any consistent oracle."""

    def __init__(self, q: int):
        self.q = q
        self.name = "plane"
        geom = geometry(3, q)
        lines = geom.pencil(Subspace(q, 3, (geom.point(0),)))[:q]
        self.lines = tuple((ln, geom.mask(ln)) for ln in lines)

    def decide(self, view: GameView):
        cand = view.candidates
        if cand.bit_count() == 1:
            return ("announce", view.geom.lowest_point(cand))
        # a line holding no candidate was denied; one holding them all was
        # confirmed, and the sweep stops; the first line that splits is next
        for ln, m in self.lines:
            inside = cand & m
            if inside == cand:
                break
            if inside:
                return ("ask", ln)
        # a canonical point is the echelon basis of its own span
        return ("ask", Subspace(self.q, 3, (view.geom.lowest_point(cand),)))


@lru_cache(maxsize=None)
def _round(n: int, q: int, state: tuple[int, int, int, bool]):
    """One round of the inductive descent in closed form: the asked
    hyperplanes in order, each with its mask and the state a YES to it leads
    to, and the state reached when every ask gets NO.

    The state (m, z, lam, known) stands for the context
    ctx = span(e_0, ..., e_{m-1}, L), the subspace known to hold the hidden
    line, where L is the last echelon row of ctx: it has its leading 1 at a
    coordinate >= m, z is its last nonzero coordinate and lam = L_z.  known
    says that span(e_0, ..., e_{m-1}) is known not to hold the hidden line.
    The descent starts at (n-1, n-1, 1, False), with L = e_{n-1}, and ends
    at m = 0, where ctx is a point.

    A round splits ctx by the pencil of its hyperplanes through
    u = span(e_0, ..., e_{m-2}).  Extending u by a = e_{m-1} and b = L, the
    members are span(u, L), where x_{m-1} = 0, and span(u, e_{m-1} + s L)
    for s in GF(q).  Sorted by basis they come in that order, s by s: L is
    0 at coordinate m-1, and e_{m-1} + s L first differs across s at L's
    leading 1.  So
    - x_{m-1} = 0 keeps L and known: (m-1, z, lam, known);
    - s = 0 is span(e_0, ..., e_{m-1}); its new last row is e_{m-1}, so it
      leads to (m-1, m-1, 1, True).  Once known, it is the member known to
      miss the hidden line, and it is skipped;
    - s != 0 has last row e_{m-1} + s L, so it leads to (m-1, z, s lam, True);
    - the last member, s = q-1, is not asked but inferred when every other
      member gets a NO.
    A YES to any other member than x_{m-1} = 0, or the fallback, means that
    x_{m-1} = 0 got a NO, so u misses the hidden line and known is set; a
    subspace of a missed one is missed too, so known is never cleared.

    Each asked member w of ctx is lifted to the hyperplane of the full space
    whose intersection with ctx is w, by adding a complement of ctx.  The
    greedy complement by unit vectors is {e_i : i >= m, i != z}: L lies in
    the span of e_m, ..., e_z with L_z != 0, so e_z is the one unit past
    e_{m-1} that ctx and the units before it already span.  Adding the
    complement turns L into lam e_z, so the lifts are
    coordinate_hyperplane(m-1) for x_{m-1} = 0, coordinate_hyperplane(z) for
    s = 0, and ratio_hyperplane(m-1, z, s lam), the hyperplane
    v_z = s lam v_{m-1}, for s != 0.  No round needs an rref."""
    m, z, lam, known = state
    geom = geometry(n, q)
    *ratios, last = [geom.F.mul(s, lam) for s in range(1, q)]
    asks = [(coordinate_hyperplane(q, n, m - 1), (m - 1, z, lam, known))]
    if not known:
        asks.append((coordinate_hyperplane(q, n, z), (m - 1, m - 1, 1, True)))
    asks += [(ratio_hyperplane(q, n, m - 1, z, r), (m - 1, z, r, True)) for r in ratios]
    return tuple((h, geom.mask(h), nxt) for h, nxt in asks), (m - 1, z, last, True)


class InductiveSearcher:
    """General strategy using at most (n-1)(q-1)+1 hyperplane queries.

    Maintains a subspace ctx known to contain the hidden line and descends
    one dimension per round through a pencil of co-dimension-1 subspaces of
    ctx.  Once some subspace of ctx is known NOT to contain the hidden
    line, each later round needs only q-1 questions: the pencil through a
    hyperplane of the excluded subspace has one member ruled out for free,
    and the last member is inferred when all others fail.

    Every context the plan reaches is span(e_0, ..., e_{m-1}, L) for a last
    echelon row L, and every member it asks about lifts to a coordinate
    hyperplane v_i = 0 or a ratio hyperplane v_j = lam v_i.  So the plan is
    kept in closed form, as a small state per round (see `_round`), and
    asks only those hyperplanes.
    """

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.name = "inductive"

    def decide(self, view: GameView):
        cand = view.candidates
        if cand.bit_count() == 1:
            return ("announce", view.geom.lowest_point(cand))
        state = (self.n - 1, self.n - 1, 1, False)
        # walk the plan from the full space: a member holding no candidate
        # got a NO, so the round moves on; the plan descends into a member
        # holding them all, which got a YES, or into the fallback once every
        # member got a NO.  The first member that splits them is asked next.
        while state[0]:
            asks, fallback = _round(self.n, self.q, state)
            for ask, m, nxt in asks:
                inside = cand & m
                if inside == cand:
                    state = nxt
                    break
                if inside:
                    return ("ask", ask)
            else:
                state = fallback
        raise InternalInconsistency("plan finished with more than one consistent point")


class TwoRoundSearcher:
    """Non-interleaved strategy: one batch fixing the zero pattern, one
    batch of coordinate-ratio questions, then announce the single remaining
    candidate; the two batches separate every point.  Never announces
    early, so its count is an exact function of the hidden point."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.name = "two-round"

    def decide(self, view: GameView):
        n, q, asked = self.n, self.q, view.asked
        if asked < n:
            return ("ask", coordinate_hyperplane(q, n, asked))
        # the first batch leaves the candidates of a single zero pattern
        low = view.geom.lowest_point(view.candidates)
        nz = [i for i in range(n) if low[i]]
        if q > 2 and len(nz) > 1:
            # the script asks v_j = lam * v_c for each later j, lam = 1..q-2
            pos, lam = divmod(asked - n, q - 2)
            if pos < len(nz) - 1:
                return ("ask", ratio_hyperplane(q, n, nz[0], nz[1 + pos], lam + 1))
        return ("announce", low)


class RandomLineSearcher:
    """Asks the hyperplanes in a seeded random order until only one point
    survives.  A baseline for adversary experiments."""

    def __init__(self, n: int, q: int, seed: int):
        self.n = n
        self.q = q
        self.name = f"random-lines:{seed}"
        order = list(geometry(n, q).subspaces(n - 1))
        random.Random(f"lines:{seed}").shuffle(order)
        self.order = order

    def decide(self, view: GameView):
        if view.candidates.bit_count() == 1 or view.asked >= len(self.order):
            return ("announce", view.geom.lowest_point(view.candidates))
        return ("ask", self.order[view.asked])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class FixedOracle:
    """Truthful oracle for a concrete hidden point: each answer is the
    point's bit in the query's cached mask."""

    def __init__(self, q: int, point):
        self.point = normalize(q, point)
        self.name = "fixed:" + ",".join(str(c) for c in self.point)
        self.geom = geometry(len(self.point), q)
        self.bit = self.geom.rank(self.point)

    def answer(self, query: Subspace, history) -> Answer:
        return YES if self.geom.mask(query) >> self.bit & 1 else NO


def _rank(geom: Geometry, m: int) -> int:
    """The dimension of the span of the points of a mask, by an echelon
    insert: each next point is the lowest one of m off the span so far,
    found by clearing the span's mask, so a call reads at most n points and
    reduces no matrix."""
    F, n, rows = geom.F, geom.n, []
    while m:
        low = m & -m
        v = geom.point(low.bit_length() - 1)
        for row in rows:  # reduced echelon rows; a pivot is a row's first 1
            c = row.index(1)
            if v[c]:
                v = F.axpy(F.neg(v[c]), row, v)
        c = next(i for i, x in enumerate(v) if x)
        v = tuple(F.axpy(F.inv(v[c]), v, [0] * n)) if v[c] != 1 else tuple(v)
        rows = [tuple(F.axpy(F.neg(r[c]), v, r)) if r[c] else r for r in rows] + [v]
        rows.sort(reverse=True)  # by pivot
        if len(rows) == n:
            break
        m &= ~(low if len(rows) == 1 else geom.mask(Subspace(geom.q, n, tuple(rows))))
    return len(rows)


class AdversaryOracle:
    """Answer-delaying adversary for PG(n-1, q), a function of the
    candidates C its history leaves: a query U gets NO when some candidate
    lies off U and either C is collinear or the candidates off U span what C
    spans, and YES otherwise.  Either answer leaves a candidate.

    For n = 2 every query is a point, and a NO removes one of q+1 points, so
    any searcher pays q.  For n = 3 it costs any searcher at least 2q-1
    queries.  While C spans the plane, a NO keeps it spanning, and C is the
    plane minus the t queries denied so far.  The first YES, to U, comes
    when the candidates off U lie on a line L.  Take L as the line at
    infinity.  L holds a candidate, so no denied query is L, and each denied
    query is the zero set of an affine linear form that is nonzero on S, the
    candidates off L, a nonempty subset of U: a denied point is replaced by
    a line through it that misses S.  Their product has degree t and is
    nonzero exactly on S, so by the Alon-Furedi theorem |S| >= 2q - 1 - t.
    A point U gives |S| = 1 and t + 1 >= 2q - 1 queries.  A line U leaves
    the candidates on U, which hold S; from then on a query holding them all
    gets YES and changes nothing, and any other meets U in at most one
    point, so |S| - 1 more queries follow, t + |S| >= 2q - 1 in all.

    For n >= 4 the rule is conjectured, not proved, to force
    (q-1)(n-1)+1 queries, the inductive searcher's count, which would make
    that count the adaptive optimum A(n, q).  The tests check it
    exhaustively at (4,2) and against the searchers at larger sizes."""

    def __init__(self, q: int, n: int = 3):
        self.geom = geometry(n, q)
        self.name = "adversary"

    def answer(self, query: Subspace, history) -> Answer:
        geom = self.geom
        cand = geom.full_mask
        for qry, ans in history:
            cand = _narrow(geom, cand, qry, ans)
        return self.verdict(cand, geom.mask(query))

    def verdict(self, cand: int, m: int) -> Answer:
        """The answer to a query of mask m when the candidates are cand."""
        off = cand & ~m
        if not off:
            return YES
        r = _rank(self.geom, cand)
        return NO if r <= 2 or _rank(self.geom, off) == r else YES


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


def searcher_from_name(name: str, n: int, q: int):
    if name == "plane":
        if n != 3:
            raise WrongDimension("the plane strategy needs n=3")
        return PlaneSearcher(q)
    if name == "inductive":
        return InductiveSearcher(n, q)
    if name == "two-round":
        return TwoRoundSearcher(n, q)
    if name.startswith("random-lines:"):
        try:
            seed = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"unknown searcher {name!r}") from None
        return RandomLineSearcher(n, q, seed)
    raise ValueError(f"unknown searcher {name!r}")


def oracle_from_name(name: str, n: int, q: int):
    if name == "adversary":
        return AdversaryOracle(q, n)
    if name.startswith("fixed:"):
        try:
            coords = [int(c) for c in name.split(":", 1)[1].split(",")]
        except ValueError:
            raise ValueError(f"unknown oracle {name!r}") from None
        if len(coords) != n:
            raise DimensionMismatch(f"point {coords} not of length {n}")
        if any(not 0 <= c < q for c in coords):
            raise ValueError(f"point {coords} has a coordinate outside [0, {q})")
        return FixedOracle(q, coords)
    raise ValueError(f"unknown oracle {name!r}")


def replay(transcript: Transcript) -> tuple[bool, Transcript]:
    """Re-run a finished game from its recorded strategy names and compare."""
    s = searcher_from_name(transcript.searcher, transcript.n, transcript.q)
    o = oracle_from_name(transcript.oracle, transcript.n, transcript.q)
    fresh = run_game(s, o, transcript.n, transcript.q)
    return fresh.to_json() == transcript.to_json(), fresh
