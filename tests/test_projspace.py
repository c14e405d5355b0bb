import ast
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsearch.gf import field
from qsearch.projspace import (
    DimensionMismatch,
    Geometry,
    Subspace,
    WrongDimension,
    ZeroVector,
    echelon_insert,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    geometry,
    hyperplane,
    normalize,
    rref,
)
from qsearch.separating import explicit_construction

from pencil_reference import column_sweep_rref, pencil_within


def test_gaussian_binomial_frozen():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(5, 1, 9) == 7381


def test_gaussian_binomial_edges():
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(1, -1, 3) == 0
    assert gaussian_binomial(2, 3, 3) == 0
    assert gaussian_binomial(0, 0, 2) == 1


@given(
    n=st.integers(min_value=0, max_value=6),
    k=st.integers(min_value=-1, max_value=7),
    q=st.sampled_from((2, 3, 4, 5)),
)
def test_gaussian_binomial_properties(n, k, q):
    v = gaussian_binomial(n, k, q)
    assert v == gaussian_binomial(n, n - k, q)
    if 0 < k <= n:
        # Pascal-style recursion
        assert v == q**k * gaussian_binomial(n - 1, k, q) + gaussian_binomial(
            n - 1, k - 1, q
        )


def test_normalize_frozen():
    assert normalize(3, (0, 2, 1)) == (0, 1, 2)
    assert normalize(4, (2, 1, 2)) == (1, 3, 1)
    assert normalize(2, (1, 1, 0)) == (1, 1, 0)
    assert normalize(5, (3, 0, 1)) == (1, 0, 2)


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(3, (0, 0, 0))


def test_normalize_is_idempotent_and_scale_invariant():
    F = field(4)
    for v in [(1, 2, 3), (0, 2, 1), (3, 3, 0)]:
        c = normalize(4, v)
        assert normalize(4, c) == c
        for s in range(1, 4):
            assert normalize(4, tuple(F.mul(s, x) for x in v)) == c


@pytest.mark.parametrize(
    "n,q,count", [(3, 2, 7), (2, 3, 4), (4, 3, 40), (3, 4, 21), (2, 2, 3)]
)
def test_point_counts(n, q, count):
    pts = list(enumerate_points(n, q))
    assert len(pts) == count == gaussian_binomial(n, 1, q)
    assert len(set(pts)) == count
    assert pts == sorted(pts)  # lexicographic streaming order
    assert all(p[next(i for i in range(n) if p[i])] == 1 for p in pts)
    # a geometry counts its points without listing them, and lists them
    # in the same order on first read
    geom = Geometry(n, q)
    assert geom.full_mask.bit_length() == count and "points" not in vars(geom)
    assert geom.points == pts


def test_first_and_last_points():
    pts = list(enumerate_points(3, 3))
    assert pts[0] == (0, 0, 1)
    assert pts[-1] == (1, 2, 2)


def test_rref_frozen():
    assert rref(2, [(1, 1, 0), (0, 1, 1)]) == ((1, 0, 1), (0, 1, 1))
    assert rref(3, [(2, 1, 0)]) == ((1, 2, 0),)
    assert rref(2, [(0, 0, 0)]) == ()


def test_span_basis_is_rref():
    s = Subspace.span(2, 3, [(1, 1, 0), (0, 1, 1)])
    assert s.basis == ((1, 0, 1), (0, 1, 1))
    assert s.k == 2
    assert s.pivots() == (0, 1)


def test_span_order_invariance():
    a = Subspace.span(3, 4, [(1, 2, 0, 1), (0, 1, 1, 0)])
    b = Subspace.span(3, 4, [(0, 1, 1, 0), (2, 4 % 3, 0, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_contains():
    s = Subspace.span(3, 3, [(1, 0, 2), (0, 1, 1)])
    assert s.contains((1, 0, 2))
    assert s.contains((1, 1, 0))  # sum of the two rows
    assert s.contains((0, 0, 0))
    assert not s.contains((0, 0, 1))
    with pytest.raises(DimensionMismatch):
        s.contains((1, 0))


DIFF_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def _random_matrices(q):
    """Seeded random matrices over GF(q): full ones, low-rank ones whose rows
    combine a few random rows, and each of those with a zero row added, a
    row repeated, or more rows than columns."""
    F, rng = field(q), random.Random(f"rref:{q}")
    out = []
    for _ in range(40):
        ncols = rng.randint(1, 6)
        base = [[rng.randrange(q) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        low = [
            F.axpy(rng.randrange(q), rng.choice(base), rng.choice(base))
            for _ in range(rng.randint(1, 5))
        ]
        for rows in (base, low):
            out.append(rows)
            out.append(rows + [[0] * ncols])
            out.append(rows[:1] + rows + rows[:1])
            out.append([[rng.randrange(q) for _ in range(ncols)] for _ in range(ncols + 2)])
    return out


@pytest.mark.parametrize("q", DIFF_ORDERS)
def test_rref_matches_the_column_sweep(q):
    mats = _random_matrices(q)
    assert any(len(rows) > len(rows[0]) for rows in mats)
    for rows in mats:
        assert rref(q, rows) == column_sweep_rref(q, rows), rows
    assert rref(q, []) == column_sweep_rref(q, []) == ()


def _probe_vectors(F, rng, rows):
    """The zero vector, each row, a random combination of two rows and a
    few random vectors, all as long as the rows."""
    q, ncols = F.q, len(rows[0])
    vecs = [[0] * ncols] + [list(r) for r in rows]
    vecs.append(F.axpy(rng.randrange(q), rng.choice(rows), rng.choice(rows)))
    vecs += [[rng.randrange(q) for _ in range(ncols)] for _ in range(4)]
    return vecs


@pytest.mark.parametrize("q", DIFF_ORDERS)
def test_contains_agrees_with_the_reference_rank(q):
    F, rng = field(q), random.Random(f"contains:{q}")
    for rows in _random_matrices(q):
        s = Subspace.span(q, len(rows[0]), rows)
        k = len(column_sweep_rref(q, rows))
        for v in _probe_vectors(F, rng, rows):
            assert s.contains(v) == (len(column_sweep_rref(q, rows + [v])) == k), (rows, v)


@pytest.mark.parametrize("q", DIFF_ORDERS)
def test_echelon_insert_keeps_rows_for_a_vector_of_their_span(q):
    F, rng = field(q), random.Random(f"insert:{q}")
    for rows in _random_matrices(q):
        basis = column_sweep_rref(q, rows)
        for v in _probe_vectors(F, rng, rows):
            got = echelon_insert(F, basis, v)
            assert got == column_sweep_rref(q, rows + [v]), (rows, v)
            assert (got is basis) == (len(got) == len(basis)), (rows, v)


@given(
    q=st.sampled_from((2, 3, 4)),
    vecs=st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        min_size=1,
        max_size=3,
    ),
)
def test_span_canonical_under_regeneration(q, vecs):
    vecs = [tuple(c % q for c in v) for v in vecs]
    s = Subspace.span(q, 3, vecs)
    # every original vector lies in the span, and re-spanning the basis is
    # a fixed point
    for v in vecs:
        assert s.contains(v)
    assert Subspace.span(q, 3, s.basis) == s
    for row in s.basis:
        assert normalize(q, row) == row or row[min(s.pivots())] == 1


def test_literal_round_trip():
    s = Subspace.span(3, 4, [(1, 0, 2, 1), (0, 1, 1, 0)])
    assert s.literal() == "q=3 n=4 k=2 basis=[[1,0,2,1],[0,1,1,0]]"
    assert Subspace.parse(s.literal()) == s


def test_parse_recanonicalizes_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = Subspace.parse("q=2 n=3 k=2 basis=[[1,1,0],[0,1,1]]")
    assert s.basis == ((1, 0, 1), (0, 1, 1))
    assert len(caught) == 1


def test_parse_k_mismatch():
    with pytest.raises(ValueError):
        Subspace.parse("q=2 n=3 k=1 basis=[[1,0,0],[0,1,0]]")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Subspace.parse("not a subspace at all")


@pytest.mark.parametrize("basis", ["[1]", '[["a",0,0]]', "[[1.5,0,0]]"])
def test_parse_rejects_rows_that_are_not_int_lists(basis):
    with pytest.raises(ValueError, match="is not a list of integers"):
        Subspace.parse(f"q=3 n=3 k=1 basis={basis}")


def test_hyperplanes_through_point_in_plane():
    p = Subspace.span(3, 3, [(1, 2, 0)])
    pencil = geometry(3, 3).pencil(p)
    assert len(pencil) == 4  # q + 1
    assert all(h.contains(p.basis[0]) and h.k == 2 for h in pencil)
    assert pencil == sorted(pencil, key=lambda s: s.basis)
    assert len(set(pencil)) == 4


def test_hyperplanes_through_zero_in_dim2():
    z = Subspace(5, 2, ())
    pencil = geometry(2, 5).pencil(z)
    assert len(pencil) == 6
    assert sorted(h.basis[0] for h in pencil) == sorted(enumerate_points(2, 5))


def test_hyperplanes_through_wrong_dim():
    line = Subspace.span(2, 4, [(1, 0, 0, 0)])  # k=1, need k=n-2=2
    with pytest.raises(WrongDimension):
        geometry(4, 2).pencil(line)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_pencil_partitions_outside_points(n, q):
    # hyperplanes through U cover the space; points off U are covered once
    geom = geometry(n, q)
    u = geom.subspaces(n - 2)[0]
    pencil = geom.pencil(u)
    assert len(pencil) == q + 1
    umask = geom.mask(u)
    cover = 0
    for h in pencil:
        hm = geom.mask(h)
        assert hm & umask == umask
        assert cover & (hm & ~umask) == 0
        cover |= hm
    assert cover == geom.full_mask


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_pencil_within_matches_brute_force(n, q):
    # for every ctx of dimension k >= 2 and every (k-2)-subspace u of it,
    # the pencil is exactly the (k-1)-subspaces between u and ctx; a
    # subspace is the span of its points, so masks decide containment
    geom = geometry(n, q)

    def inside(a, b):
        return geom.mask(a) & ~geom.mask(b) == 0

    pairs = 0
    for k in range(2, n + 1):
        for ctx in geom.subspaces(k):
            for u in geom.subspaces(k - 2):
                if not inside(u, ctx):
                    continue
                want = [
                    w for w in geom.subspaces(k - 1) if inside(u, w) and inside(w, ctx)
                ]
                assert pencil_within(ctx, u) == sorted(want, key=lambda s: s.basis)
                pairs += 1
    assert pairs == sum(
        gaussian_binomial(n, k, q) * gaussian_binomial(k, 2, q) for k in range(2, n + 1)
    )


def test_pencil_within_wrong_dim():
    ctx = Subspace.span(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(WrongDimension):
        pencil_within(ctx, Subspace(3, 4, ()))


@pytest.mark.parametrize(
    "n,q",
    [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 8), (3, 9),
     (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2)],
)
def test_pencil_equals_the_reference_at_every_axis(n, q):
    # written from the two normals of u, member for member and in the order
    # the reference builds by basis extension and one elimination per member
    geom, full = Geometry(n, q), Subspace.full(q, n)
    for u in geom.subspaces(n - 2):
        assert geom.pencil(u) == pencil_within(full, u)


def _dot(F, a, x):
    """a.x over the field F."""
    total = 0
    for ai, xi in zip(a, x):
        total = F.add(total, F.mul(ai, xi))
    return total


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 4), (3, 5), (4, 3), (5, 2)])
def test_hyperplane_is_the_span_of_its_kernel(n, q):
    F, pts = field(q), list(enumerate_points(n, q))
    for a in pts:
        kernel = [x for x in pts if not _dot(F, a, x)]
        want = Subspace.span(q, n, kernel)
        assert want.k == n - 1
        for c in range(1, q):  # a normal and its multiples name one hyperplane
            assert hyperplane(q, n, F.axpy(c, a, [0] * n)) == want


def test_hyperplane_of_the_zero_vector():
    with pytest.raises(ZeroVector):
        hyperplane(3, 3, [0, 0, 0])


@pytest.mark.parametrize(
    "n,q,k,count",
    [(3, 2, 2, 7), (4, 2, 2, 35), (3, 3, 1, 13), (4, 3, 2, 130), (3, 4, 2, 21)],
)
def test_subspace_counts(n, q, k, count):
    subs = list(enumerate_subspaces(n, q, k))
    assert len(subs) == count == gaussian_binomial(n, k, q)
    assert len(set(subs)) == count
    assert all(s.k == k for s in subs)


def test_enumerate_subspaces_edges():
    assert list(enumerate_subspaces(3, 2, 0)) == [Subspace(2, 3, ())]
    assert list(enumerate_subspaces(3, 2, -1)) == []
    assert list(enumerate_subspaces(3, 2, 4)) == []
    full = list(enumerate_subspaces(3, 2, 3))
    assert len(full) == 1 and full[0].k == 3


def test_enumerate_subspaces_is_streaming():
    gen = enumerate_subspaces(4, 3, 2)
    first = next(gen)
    assert first.k == 2


def test_geometry_masks():
    geom = geometry(3, 3)
    assert geom.full_mask.bit_count() == 13
    line = Subspace.span(3, 3, [(1, 0, 0), (0, 1, 0)])
    m = geom.mask(line)
    assert m.bit_count() == 4
    assert [geom.points[i] for i in range(13) if (m >> i) & 1] == [
        p for p in geom.points if line.contains(p)
    ]
    p = (1, 2, 0)
    assert (1 << geom.rank(p)).bit_count() == 1
    assert geom.lowest_point(1 << geom.rank(p)) == p
    assert geom.lowest_point(m) == next(x for x in geom.points if line.contains(x))


def test_geometry_point_dim_masks():
    geom = geometry(2, 4)
    for s in geom.subspaces(1):
        assert geom.mask(s).bit_count() == 1
    assert len(geom.subspaces(1)) == 5


def test_geometry_cache():
    assert geometry(3, 2) is geometry(3, 2)


def _mask_by_contains(geom, s):
    return sum(1 << i for i, p in enumerate(geom.points) if s.contains(p))


def _mask_by_layers(geom, s):
    """The per-point mask loop `Geometry.mask` replaced.  With the echelon
    basis b_0, ..., b_{k-1}, each point is b_i + v for exactly one i and one
    v in the span of the rows below b_i, and that sum is already canonical."""
    F, index = geom.F, {p: i for i, p in enumerate(geom.points)}
    m = 0
    for i, row in enumerate(s.basis):
        layer = [row]
        for below in s.basis[i + 1 :]:
            layer += [F.axpy(c, below, u) for c in range(1, geom.q) for u in layer]
        for u in layer:
            m |= 1 << index[tuple(u)]
    return m


def _random_subspace(rng, n, q, k):
    s = Subspace(q, n, ())
    while s.k < k:
        s = Subspace.span(q, n, s.basis + (tuple(rng.randrange(q) for _ in range(n)),))
    return s


@pytest.mark.parametrize("n,q", [(2, 5), (3, 4), (3, 9), (4, 3), (5, 2)])
def test_mask_matches_contains_for_every_subspace(n, q):
    geom = geometry(n, q)
    for k in range(n + 1):
        for s in enumerate_subspaces(n, q, k):
            assert geom.mask(s) == _mask_by_contains(geom, s), s


@pytest.mark.parametrize("n,q", [(5, 9), (6, 7)])
def test_mask_matches_contains_for_random_subspaces(n, q):
    rng = random.Random(f"mask:{n}:{q}")
    geom = geometry(n, q)
    for k in range(1, n):
        s = _random_subspace(rng, n, q, k)
        assert geom.mask(s) == _mask_by_contains(geom, s), s


@pytest.mark.parametrize(
    "n,q",
    [(2, 1021), (2, 1024), (3, 257), (3, 16), (4, 8), (5, 4), (3, 27), (4, 9)]
    + [(5, 9), (6, 7), (7, 5)],
)
def test_mask_matches_the_layer_loop(n, q):
    # q above 256, characteristic 2 and odd prime powers, random proper
    # subspaces of every dimension; at the sizes of the explicit systems,
    # their queries too; a fresh Geometry builds every mask cold
    rng = random.Random(f"layers:{n}:{q}")
    geom = Geometry(n, q)
    subspaces = [_random_subspace(rng, n, q, k) for k in range(n) for _ in range(3)]
    if n >= 5:
        subspaces += explicit_construction(n, q).queries
    for s in subspaces:
        assert geom.mask(s) == _mask_by_layers(geom, s), s


def test_no_module_reads_the_environment():
    # the caps are module constants, so no setting outside the code changes a result
    package = Path(__file__).resolve().parents[1] / "src" / "qsearch"
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in readers
        or isinstance(node, ast.Name) and node.id in readers
        or isinstance(node, ast.alias) and node.name in readers
    ]
    assert found == []


def test_mask_rejects_a_subspace_of_another_space():
    geom = geometry(3, 3)
    points = [Subspace(q, n, ((1,) + (0,) * (n - 1),)) for q, n in ((3, 4), (2, 3), (5, 3))]
    for s in (Subspace.full(3, 4), Subspace.full(2, 3), Subspace.full(5, 3), *points):
        with pytest.raises(DimensionMismatch):
            geom.mask(s)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 4), (4, 3), (3, 16), (5, 2)])
def test_rank_is_the_index_of_every_point(n, q):
    geom = geometry(n, q)
    assert [geom.rank(p) for p in geom.points] == list(range(len(geom.points)))


@pytest.mark.parametrize(
    "n,q", [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (5, 5), (3, 9), (6, 7)]
)
def test_point_is_the_inverse_of_rank(n, q):
    geom = Geometry(n, q)
    pts = list(enumerate_points(n, q))
    assert [geom.point(i) for i in range(len(pts))] == pts
    for i in (-1, len(pts)):
        with pytest.raises(IndexError):
            geom.point(i)
    assert "points" not in vars(geom)  # named in closed form, none listed


@pytest.mark.parametrize(
    "p",
    [(), (1, 0), (1, 0, 0, 0), (0, 0, 0), (2, 0, 0), (0, 3, 1), (1, 3, 0),
     (1, -1, 0), (0, 1, 7), (1, 0.5, 0), (1, "0", 0), [1, 0, 0], None,
     (0, 1, 0.5), (0, 1, 0.0)],
)
def test_rank_rejects_what_is_not_a_canonical_point(p):
    with pytest.raises(KeyError):
        geometry(3, 3).rank(p)


@given(st.lists(st.integers(min_value=-1, max_value=4), min_size=2, max_size=4))
def test_rank_never_names_another_point(p):
    geom = geometry(3, 4)
    try:
        i = geom.rank(tuple(p))
    except KeyError:
        assert tuple(p) not in geom.points
    else:
        assert geom.points[i] == tuple(p)
