import hashlib
import json
import random
import tracemalloc
from functools import lru_cache, reduce
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsearch import projspace, separating
from qsearch.gf import field
from qsearch.projspace import DimensionMismatch, Subspace, WrongDimension, geometry
from qsearch.separating import (
    Exhausted,
    _rows,
    NotSeparating,
    QuerySet,
    RetriesExhausted,
    TooLarge,
    brute_force_minimum,
    coordinate_hyperplane,
    count_unseparated_bruteforce,
    explicit_construction,
    is_separating,
    minimal_subsystem,
    points_to_lines,
    random_construction_trace,
    ratio_hyperplane,
    separating_witness,
    signatures,
    unseparated_pencil_count,
)

FANO_TRIANGLE = (
    Subspace.span(2, 3, [(1, 0, 0), (0, 1, 0)]),
    Subspace.span(2, 3, [(1, 0, 0), (0, 1, 1)]),
    Subspace.span(2, 3, [(1, 0, 1), (0, 1, 0)]),
)


def test_fano_triangle_separates():
    qs = QuerySet(2, 3, FANO_TRIANGLE)
    assert is_separating(qs)
    sigs = signatures(qs)
    assert len(sigs) == 7
    assert len(set(sigs)) == 7


def test_single_line_witness_frozen():
    qs = QuerySet(2, 3, FANO_TRIANGLE[:1])
    assert not is_separating(qs)
    # the class holding the lex-first point is off the line; its two lowest
    # members collide
    assert separating_witness(qs) == ((0, 0, 1), (0, 1, 1))
    assert sorted(set(signatures(qs))) == [0, 1]


def test_empty_system_witness():
    qs = QuerySet(3, 3, ())
    assert separating_witness(qs) == ((0, 0, 1), (0, 1, 0))
    assert signatures(qs) == [0] * 13


def test_queryset_validation():
    line = Subspace.span(2, 3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatch):
        QuerySet(3, 3, (line,))  # q mismatch
    with pytest.raises(DimensionMismatch):
        QuerySet(2, 4, (line,))  # n mismatch
    with pytest.raises(WrongDimension):
        QuerySet(2, 3, (Subspace(2, 3, ()),))
    with pytest.raises(WrongDimension):
        QuerySet(2, 3, (Subspace.span(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),))


def test_save_load_round_trip(tmp_path):
    qs = explicit_construction(4, 3)
    path = tmp_path / "sys.txt"
    qs.save(path)
    back = QuerySet.load(path)
    assert back.q == qs.q and back.n == qs.n
    assert back.queries == qs.queries
    assert back == qs and hash(back) == hash(qs)
    head = path.read_text().splitlines()[0]
    assert head == "3 4 10"


def test_load_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3 2\nq=2 n=3 k=2 basis=[[1,0,0],[0,1,0]]\n")
    with pytest.raises(ValueError):
        QuerySet.load(path)


@pytest.mark.parametrize("order", ["1", "0", "6", "2048"])
def test_load_rejects_a_header_order_that_names_no_field(tmp_path, order):
    path = tmp_path / "empty.txt"
    path.write_text(f"{order} 2 0\n")
    with pytest.raises(ValueError):
        QuerySet.load(path)


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_load_rejects_a_header_dimension_with_no_proper_subspace(tmp_path, n):
    # with n <= 1 there is no query to ask, so "separating" would be vacuous
    path = tmp_path / "empty.txt"
    path.write_text(f"3 {n} 0\n")
    with pytest.raises(ValueError, match=f"need n >= 2, got n={n}$"):
        QuerySet.load(path)


def test_coordinate_hyperplane():
    h = coordinate_hyperplane(3, 4, 1)
    assert h.k == 3
    assert h.contains((1, 0, 0, 0)) and h.contains((0, 0, 1, 2))
    assert not h.contains((0, 1, 0, 0))


def test_ratio_hyperplane():
    h = ratio_hyperplane(3, 3, 0, 1, 2)  # v1 = 2 v0
    assert h.k == 2
    assert h.contains((1, 2, 0)) and h.contains((1, 2, 1)) and h.contains((0, 0, 1))
    assert not h.contains((1, 1, 0))
    with pytest.raises(ValueError):
        ratio_hyperplane(3, 3, 1, 1, 1)
    with pytest.raises(ValueError):
        ratio_hyperplane(3, 3, 0, 1, 0)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 4), (3, 8), (4, 9), (5, 5), (6, 7)])
def test_ratio_hyperplane_is_the_echelon_form_of_its_rows(n, q):
    # built in echelon form with no rref: it must be what span reduces the
    # docstring's rows to
    units = Subspace.full(q, n).basis
    for i in range(n):
        for j in range(i + 1, n):
            for lam in range(1, q):
                tie = tuple(1 if c == i else lam if c == j else 0 for c in range(n))
                rows = [e for k, e in enumerate(units) if k not in (i, j)] + [tie]
                h = ratio_hyperplane(q, n, i, j, lam)
                assert h.basis == Subspace.span(q, n, rows).basis, (i, j, lam)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (3, 4), (3, 8), (3, 9), (4, 3), (4, 5)])
def test_ratio_hyperplane_matches_equation(n, q):
    # the spanned hyperplane holds exactly the points with p_j = lam * p_i
    F = field(q)
    geom = geometry(n, q)
    for i in range(n):
        for j in range(i + 1, n):
            for lam in range(1, q):
                h = ratio_hyperplane(q, n, i, j, lam)
                assert h.k == n - 1
                for p in geom.points:
                    assert h.contains(p) == (p[j] == F.mul(lam, p[i]))


@pytest.mark.parametrize(
    "n,q,size",
    [(3, 3, 6), (4, 3, 10), (4, 5, 22), (2, 2, 2), (5, 2, 5), (3, 4, 9)],
)
def test_explicit_construction(n, q, size):
    qs = explicit_construction(n, q)
    assert len(qs) == size == n + n * (n - 1) // 2 * (q - 2)
    assert all(s.k == n - 1 for s in qs.queries)
    assert is_separating(qs)


def test_random_construction_reproducible():
    a = random_construction_trace(3, 3, seed=11)[0]
    b = random_construction_trace(3, 3, seed=11)[0]
    assert a.queries == b.queries
    assert len(a) == 2 * 3 * 3
    assert is_separating(a)


def test_random_construction_trace_reports_attempts():
    qs, attempts = random_construction_trace(4, 2, seed=0)
    assert attempts >= 1
    assert is_separating(qs)
    assert len(qs) == 2 * 4 * 2


def test_random_construction_needs_three_dims():
    with pytest.raises(WrongDimension):
        random_construction_trace(2, 5, seed=1)[0]


def test_random_construction_can_exhaust(monkeypatch):
    # zero retries allowed is a guaranteed failure
    monkeypatch.setattr(separating, "MAX_RETRIES", 0)
    with pytest.raises(RetriesExhausted, match="in 0 attempts"):
        random_construction_trace(3, 2, seed=0)


def test_unseparated_pencil_count_frozen():
    assert unseparated_pencil_count(3, 2) == 1
    assert unseparated_pencil_count(3, 3) == 2
    assert unseparated_pencil_count(3, 5) == 4
    assert unseparated_pencil_count(4, 2) == 7
    assert unseparated_pencil_count(4, 3) == 25


def test_count_unseparated_matches_formula_spot():
    for n, q, u, v in [
        (3, 3, (0, 0, 1), (0, 1, 0)),
        (3, 3, (1, 2, 2), (0, 0, 1)),
        (3, 3, (0, 0, 2), (0, 2, 0)),
        (4, 2, (0, 0, 0, 1), (1, 1, 1, 1)),
    ]:
        assert count_unseparated_bruteforce(n, q, u, v) == unseparated_pencil_count(
            n, q
        )


def test_count_unseparated_rejects_equal_points():
    with pytest.raises(ValueError):
        count_unseparated_bruteforce(3, 3, (0, 0, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        count_unseparated_bruteforce(3, 3, (0, 0, 1), (0, 0, 2))


@lru_cache(maxsize=None)
def _pencil_masks(n, q, s):
    geom = geometry(n, q)
    return tuple(geom.mask(h) for h in geom.pencil(s))


def _unseparated_by_masks(n, q, u, v):
    """Reference count that does not use `signatures`: compare the two point
    masks against every member of every pencil.  Every pair reads every
    pencil, so the pencils' masks are memoized here."""
    geom = geometry(n, q)
    mu, mv = 1 << geom.rank(u), 1 << geom.rank(v)
    return sum(
        all(bool(m & mu) == bool(m & mv) for m in _pencil_masks(n, q, s))
        for s in geom.subspaces(n - 2)
    )


@pytest.mark.parametrize(
    "n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2)]
)
def test_count_unseparated_matches_mask_oracle_on_every_pair(n, q):
    points = geometry(n, q).points
    for a, u in enumerate(points):
        for v in points[a + 1 :]:
            got = count_unseparated_bruteforce(n, q, u, v)
            assert got == _unseparated_by_masks(n, q, u, v), (u, v)


def test_minimal_subsystem():
    qs = explicit_construction(3, 2)
    red = minimal_subsystem(qs)
    assert is_separating(red)
    assert len(red) <= len(qs)
    # minimality: every remaining query is load-bearing
    for i in range(len(red)):
        rest = red.queries[:i] + red.queries[i + 1 :]
        assert not is_separating(QuerySet(red.q, red.n, rest))
    # idempotence
    again = minimal_subsystem(red)
    assert again.queries == red.queries


def test_minimal_subsystem_rejects_non_separating():
    with pytest.raises(NotSeparating):
        minimal_subsystem(QuerySet(2, 3, FANO_TRIANGLE[:1]))


def test_a_failing_reduction_names_its_colliding_pair():
    with pytest.raises(NotSeparating, match=r"\(0, 0, 1\) and \(0, 1, 1\) collide$"):
        minimal_subsystem(QuerySet(2, 3, FANO_TRIANGLE[:1]))


def test_points_to_lines_mixed(mixed_system_factory):
    mixed = mixed_system_factory(3, 0)
    assert any(s.k == 1 for s in mixed.queries)
    out = points_to_lines(mixed)
    assert all(s.k == 2 for s in out.queries)
    assert len(out) == len(mixed)
    assert is_separating(out)


@pytest.mark.parametrize("q", (3, 4))
def test_a_point_query_of_a_minimal_system_has_at_most_one_partner(
    mixed_system_factory, q
):
    # points_to_lines relies on this: two points that collide with p once
    # p's query is gone would also collide with each other
    geom = geometry(3, q)
    for seed in range(50):
        qs = mixed_system_factory(q, seed)
        for idx, s in enumerate(qs.queries):
            if s.k != 1:
                continue
            rest = QuerySet(q, 3, qs.queries[:idx] + qs.queries[idx + 1 :])
            sigs = signatures(rest)
            mine = sigs[geom.rank(s.basis[0])]
            assert sigs.count(mine) <= 2, (seed, s)


def test_points_to_lines_outputs_are_frozen(mixed_system_factory):
    # 240 minimal mixed systems, rewritten as they were when every point
    # query rebuilt the signature table
    outs = [
        [s.literal() for s in points_to_lines(mixed_system_factory(q, seed)).queries]
        for q in (2, 3, 4, 5)
        for seed in range(60)
    ]
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest[:16] == "71530ac4a1616dfd"


def test_points_to_lines_tables_the_reduced_system_once(mixed_system_factory, monkeypatch):
    qs = next(
        qs
        for qs in map(mixed_system_factory, [5] * 60, range(60))
        if sum(s.k == 1 for s in qs.queries) >= 3
    )
    calls, real = [], separating.signatures
    monkeypatch.setattr(separating, "signatures", lambda t: calls.append(t) or real(t))
    out = points_to_lines(qs)
    assert all(s.k == 2 for s in out.queries)
    # one table for the reduction and one for every rewrite: qs is minimal
    assert calls == [qs, qs]


def test_points_to_lines_needs_plane():
    qs = explicit_construction(4, 2)
    with pytest.raises(WrongDimension):
        points_to_lines(qs)


def test_points_to_lines_all_lines_is_stable():
    qs = QuerySet(2, 3, FANO_TRIANGLE)
    out = points_to_lines(qs)
    assert set(out.queries) == set(qs.queries)


def test_brute_force_minimum_frozen():
    qs = brute_force_minimum(3, 2)
    assert len(qs) == 3
    assert is_separating(qs)
    assert all(s.k == 2 for s in qs.queries)
    assert len(brute_force_minimum(2, 3)) == 3
    # one point is told apart by no query at all
    for q in (2, 3, 4):
        assert brute_force_minimum(1, q) == QuerySet(q, 1, ())


def test_brute_force_minimum_all_dims():
    qs = brute_force_minimum(3, 2, restrict_to_hyperplanes=False)
    assert len(qs) == 3  # mixing in point queries does not beat three lines
    assert is_separating(qs)


def test_brute_force_minimum_exhausts():
    with pytest.raises(Exhausted):
        brute_force_minimum(3, 2, max_size=2)


def test_brute_force_minimum_caps():
    with pytest.raises(TooLarge):
        brute_force_minimum(3, 2, max_size=9)
    with pytest.raises(TooLarge):
        brute_force_minimum(4, 4)  # 85 points


def test_point_cap(monkeypatch):
    # geometry caches what it built under the cap it was called with
    monkeypatch.setattr(projspace, "DEFAULT_POINT_CAP", 5)
    geometry.cache_clear()
    with pytest.raises(TooLarge):
        signatures(QuerySet(2, 3, FANO_TRIANGLE))
    monkeypatch.setattr(projspace, "DEFAULT_POINT_CAP", 100)
    assert len(signatures(QuerySet(2, 3, FANO_TRIANGLE))) == 7


@given(picks=st.lists(st.integers(min_value=0, max_value=12), max_size=6))
def test_separation_matches_signature_distinctness(picks):
    geom = geometry(3, 3)
    lines = geom.subspaces(2)
    qs = QuerySet(3, 3, tuple(lines[i] for i in picks))
    # the answer vector of each point, asked query by query
    answers = {p: tuple(s.contains(p) for s in qs.queries) for p in geom.points}
    sigs = signatures(qs)
    assert sigs == [
        sum(yes << j for j, yes in enumerate(answers[p])) for p in geom.points
    ]
    distinct = len(set(answers.values())) == len(geom.points)
    assert is_separating(qs) == distinct
    wit = separating_witness(qs)
    if wit is not None:
        assert answers[wit[0]] == answers[wit[1]]
        assert wit[0] != wit[1]


def _signatures_by_bits(qs):
    """The loop `signatures` replaced: set bit j of every point found in
    query j's mask, one str.find per set bit."""
    geom = geometry(qs.n, qs.q)
    sigs = [0] * len(geom.points)
    for j, s in enumerate(qs.queries):
        bits = bin(geom.mask(s))[:1:-1]  # bits[i] is point i's membership
        i = bits.find("1")
        while i >= 0:
            sigs[i] |= 1 << j
            i = bits.find("1", i + 1)
    return sigs


@pytest.mark.parametrize("n,q", [(3, 3), (2, 5), (3, 4), (5, 2)])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 17])
def test_signatures_match_the_bit_loop(n, q, count):
    # 13, 6, 21 and 31 points, none a multiple of 8
    rng = random.Random(f"sigs:{n}:{q}:{count}")
    pool = [s for k in range(1, n) for s in geometry(n, q).subspaces(k)]
    qs = QuerySet(q, n, tuple(rng.choices(pool, k=count)))
    assert signatures(qs) == _signatures_by_bits(qs)


@pytest.mark.parametrize("n,q", [(5, 9), (6, 7)])
def test_signatures_of_the_explicit_systems_match_the_bit_loop(n, q):
    # 75 and 81 queries leave the last byte lane partly filled
    qs = explicit_construction(n, q)
    assert signatures(qs) == _signatures_by_bits(qs)


def refinement_witness(qs):
    """The partition-refinement check the answer-vector table replaced:
    split every cell of points by each query's mask, then report the two
    lowest points of the multi-point cell whose lowest point comes first."""
    geom = geometry(qs.n, qs.q)
    classes = [geom.full_mask]
    for s in qs.queries:
        m = geom.mask(s)
        classes = [d for c in classes for d in (c & m, c & ~m) if d]
    bad = [c for c in classes if c.bit_count() > 1]
    if not bad:
        return None
    c = min(bad, key=lambda x: x & -x)
    return (geom.lowest_point(c), geom.lowest_point(c & (c - 1)))


def dict_witness(qs):
    """The first-index dict loop the set-based witness replaced: the pair
    whose first point is lowest, with the next point of its signature."""
    first, pair = {}, None
    for i, s in enumerate(signatures(qs)):
        f = first.setdefault(s, i)
        if f != i and (pair is None or f < pair[0]):
            pair = (f, i)
    if pair is None:
        return None
    return tuple(geometry(qs.n, qs.q).points[i] for i in pair)


@pytest.mark.parametrize(
    "n,q", [(2, 3), (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2)]
)
def test_witness_matches_the_dict_loop(n, q):
    # the empty system, every explicit system one query short, and seeded
    # sub-systems of the explicit and of random systems
    rng = random.Random(f"witness:{n}:{q}")
    explicit = explicit_construction(n, q).queries
    systems = [()] + [explicit[:i] + explicit[i + 1 :] for i in range(len(explicit))]
    sources = [explicit]
    if n >= 3:
        sources.append(random_construction_trace(n, q, seed=rng.randrange(100))[0].queries)
    for src in sources:
        for _ in range(40):
            keep = rng.random()
            systems.append(tuple(s for s in src if rng.random() < keep))
    broken = 0
    for queries in systems:
        qs = QuerySet(q, n, queries)
        wit = dict_witness(qs)
        assert separating_witness(qs) == wit
        broken += wit is not None
    assert broken >= len(explicit) + 1  # no explicit query can be dropped


def recheck_minimal(qs):
    """The rebuild-and-recheck reduction: drop each query in reverse order
    when the rebuilt system without it still separates."""
    kept = list(qs.queries)
    for i in range(len(kept) - 1, -1, -1):
        trial = kept[:i] + kept[i + 1 :]
        if refinement_witness(QuerySet(qs.q, qs.n, tuple(trial))) is None:
            kept = trial
    return tuple(kept)


def random_systems(n, q, count, seed):
    """Seeded systems mixing every proper dimension, with repeated queries;
    half of them start from the explicit construction, so they separate."""
    rng = random.Random(f"systems:{n}:{q}:{seed}")
    geom = geometry(n, q)
    pool = [s for k in range(1, n) for s in geom.subspaces(k)]
    explicit = list(explicit_construction(n, q).queries)
    yield QuerySet(q, n, ())
    for i in range(count):
        queries = [rng.choice(pool) for _ in range(rng.randrange(2 * n * q))]
        queries += rng.choices(queries, k=len(queries) // 3)  # repeats
        if i % 2:
            queries += explicit
        rng.shuffle(queries)
        yield QuerySet(q, n, tuple(queries))


@pytest.mark.parametrize(
    "n,q", [(2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]
)
def test_table_matches_refinement_oracle(n, q):
    separating = broken = 0
    for qs in random_systems(n, q, 60, seed=0):
        wit = refinement_witness(qs)
        assert separating_witness(qs) == wit
        assert is_separating(qs) == (wit is None)
        if wit is None:
            separating += 1
            assert minimal_subsystem(qs).queries == recheck_minimal(qs)
        else:
            broken += 1
            with pytest.raises(NotSeparating):
                minimal_subsystem(qs)
    assert separating >= 30 and broken >= 1


def test_empty_system_puts_every_point_under_one_key():
    qs = QuerySet(3, 4, ())
    data, W, key = _rows(qs)
    assert (data, W, key) == (bytes(40), 1, 0)  # 40 points, no query
    assert separating_witness(qs) == dict_witness(qs) == refinement_witness(qs)


@pytest.mark.parametrize("n,q,lanes", [(5, 5, 5), (4, 9, 6)])
def test_bucketed_witness_matches_both_references_one_query_short(n, q, lanes):
    explicit = explicit_construction(n, q).queries
    for i in range(len(explicit)):
        qs = QuerySet(q, n, explicit[:i] + explicit[i + 1 :])
        data, W, key = _rows(qs)
        assert W == lanes
        # byte i of the key is the XOR of row i, so equal rows share a key
        rows = [data[j : j + W] for j in range(0, len(data), W)]
        assert key.to_bytes(len(rows), "little") == bytes(reduce(xor, r) for r in rows)
        wit = separating_witness(qs)
        assert wit is not None
        assert wit == dict_witness(qs) == refinement_witness(qs)


def test_the_verdict_holds_one_key_of_rows_at_a_time():
    # 19,608 points: a set of every signature peaks near 1.5 MB, one key's
    # rows at a time near 0.5 MB; the masks are built before tracing
    qs = explicit_construction(6, 7)
    assert is_separating(qs)
    tracemalloc.start()
    try:
        assert separating_witness(qs) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6


def test_a_repeated_query_is_tabled_once():
    # 993 points: 4,000 copies of one line would make a 500-byte row per
    # point, about 1 MB; the copies collide exactly where the line does
    line = Subspace.span(31, 3, [(1, 0, 5), (0, 1, 7)])
    one, repeated = QuerySet(31, 3, (line,)), QuerySet(31, 3, (line,) * 4000)
    want = separating_witness(one)
    assert want is not None
    tracemalloc.start()
    try:
        assert separating_witness(repeated) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e3
