"""Projective geometry over GF(q): points, subspaces, and fast point sets.

A projective point of PG(n-1, q) is the canonical representative of a line
through the origin of GF(q)^n: the unique scaling whose first nonzero
coordinate is 1.  A k-dimensional linear subspace is stored as the tuple of
rows of its reduced row echelon basis, which makes equal subspaces compare
equal as values.

`Geometry` represents the point sets of a fixed (n, q) as int bitmasks,
bit i standing for the i-th point in global lexicographic order.  A point's
index and the point of an index are closed forms (`Geometry.rank`,
`Geometry.point`), so the list of all points is built only on first read.
Everything downstream that filters candidate lines works on these masks.
A subspace's mask is the AND of the masks of the hyperplanes that cut it
out, and a hyperplane's mask is built per lead block of points by a base-q
digit recursion over its coefficients: there is no loop over points.
Every hyperplane a query asks is written down from its normal
(`hyperplane`), so no derived subspace goes through elimination.  Every
row reduction (`rref`, the adversary's ranks) is one `echelon_insert` per
vector; `Subspace.contains` runs only its reduce step.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings
from functools import cached_property, lru_cache, partial, reduce

from .gf import GF, field
from .record import Record, _set


class ZeroVector(ValueError):
    """The zero vector spans nothing and has no projective representative."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces or fields."""


class WrongDimension(ValueError):
    """Subspace has the wrong dimension for the requested operation."""


class TooLarge(ValueError):
    """Instance exceeds the configured enumeration caps."""


DEFAULT_POINT_CAP = 10**6


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q).

    Exact integer; 0 when k is outside [0, n], matching the convention for
    binomial coefficients.  Cached, so the callers that each need the point
    count of one (n, q) share a single q^n-sized computation.
    """
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def point_count(n: int, q: int, cap: int) -> int:
    """Number of points of PG(n-1, q).  Raises TooLarge when it exceeds cap,
    without computing q^n once 2^(n-1), a lower bound, already does."""
    if n - 1 >= cap.bit_length():
        raise TooLarge(f"at least 2^{n - 1} points exceeds the cap of {cap}")
    count = gaussian_binomial(n, 1, q)
    if count > cap:
        raise TooLarge(f"{count} points exceeds the cap of {cap}")
    return count


def normalize(q: int, vec) -> tuple[int, ...]:
    """Canonical projective representative: scale so the first nonzero
    coordinate becomes 1."""
    F = field(q)
    v = tuple(vec)
    for c in v:
        if c:
            if c == 1:
                return v
            return tuple(F.axpy(F.inv(c), v, [0] * len(v)))
    raise ZeroVector(f"cannot normalize the zero vector in GF({q})^{len(v)}")


def enumerate_points(n: int, q: int):
    """All points of PG(n-1, q), streamed in lexicographic order of their
    canonical coordinate vectors (more leading zeros come first)."""
    for lead in range(n - 1, -1, -1):
        prefix = (0,) * lead + (1,)
        for suffix in itertools.product(range(q), repeat=n - 1 - lead):
            yield prefix + suffix


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _reduce(F: GF, rows, vec):
    """vec with every pivot of the reduced echelon rows cleared; zero
    exactly when vec lies in their span.  A pivot is a row's first 1."""
    for row in rows:
        c = row.index(1)
        if vec[c]:
            vec = F.axpy(F.neg(vec[c]), row, vec)
    return vec


def echelon_insert(F: GF, rows, vec) -> tuple[tuple[int, ...], ...]:
    """The reduced echelon rows of span(rows, vec), in pivot order, from the
    reduced echelon rows of a span in pivot order.  vec is reduced against
    the rows, normalized, and cleared from the rows above it.  When vec lies
    in the span, rows itself is returned."""
    vec = _reduce(F, rows, vec)
    if not any(vec):
        return rows
    v = normalize(F.q, vec)
    c = v.index(1)
    out = [tuple(F.axpy(F.neg(r[c]), v, r)) if r[c] else r for r in rows] + [v]
    return tuple(sorted(out, reverse=True))  # an earlier pivot sorts first


def rref(q: int, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q), one `echelon_insert` per row;
    zero rows are dropped."""
    F, mat = field(q), [tuple(r) for r in rows]
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise DimensionMismatch("ragged matrix")
    return reduce(partial(echelon_insert, F), mat, ())


class Subspace(Record):
    """Linear subspace of GF(q)^n in reduced row echelon basis form."""

    __slots__ = ("q", "n", "basis", "_hash", "_literal")
    _fields = ("q", "n", "basis")

    def __init__(self, q: int, n: int, basis: tuple[tuple[int, ...], ...]):
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "basis", basis)
        # hashed up front: nearly every subspace is looked up in a cache
        _set(self, "_hash", hash((q, n, basis)))

    @staticmethod
    def span(q: int, n: int, vectors) -> "Subspace":
        rows = [tuple(v) for v in vectors]
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch(f"vector {r} not of length {n}")
        return Subspace(q, n, rref(q, rows))

    @staticmethod
    @lru_cache(maxsize=None)
    def full(q: int, n: int) -> "Subspace":
        """The whole space, its basis rows being the unit vectors in order."""
        return Subspace(
            q, n, tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        )

    @property
    def k(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def contains(self, vec) -> bool:
        """Membership: vec reduces to zero against the echelon basis."""
        v = tuple(vec)
        if len(v) != self.n:
            raise DimensionMismatch(f"vector {vec!r} not of length {self.n}")
        return not any(_reduce(field(self.q), self.basis, v))

    def __eq__(self, other):
        # mask-cache lookups compare equal subspaces built apart, and the
        # basis is what tells two subspaces of one space apart
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.basis == other.basis and self.q == other.q and self.n == other.n

    def __hash__(self) -> int:
        return self._hash

    def literal(self) -> str:
        """One-line text form, parseable by Subspace.parse; built once."""
        try:
            return self._literal
        except AttributeError:
            basis = json.dumps([list(r) for r in self.basis], separators=(",", ","))
            _set(self, "_literal", f"q={self.q} n={self.n} k={self.k} basis={basis}")
            return self._literal

    _LITERAL = re.compile(r"^q=(\d+) n=(\d+) k=(\d+) basis=(\[.*\])$")

    @staticmethod
    def parse(line: str) -> "Subspace":
        m = Subspace._LITERAL.match(line.strip())
        if not m:
            raise ValueError(f"malformed subspace literal: {line!r}")
        q, n, k = int(m.group(1)), int(m.group(2)), int(m.group(3))
        try:
            rows = json.loads(m.group(4))
        except RecursionError:  # a RuntimeError, which would read as a failed check
            raise ValueError("subspace literal's basis is nested too deeply") from None
        for r in rows:
            if not isinstance(r, list) or any(type(x) is not int for x in r):
                raise ValueError(f"basis row {r!r} is not a list of integers")
            if len(r) != n:
                raise DimensionMismatch(f"basis row {r} not of length {n}")
            if any(not 0 <= x < q for x in r):
                raise ValueError(f"entry out of range for GF({q}) in {r}")
        sub = Subspace.span(q, n, rows)
        if sub.k != k:
            raise ValueError(
                f"declared k={k} but basis spans a {sub.k}-dimensional space"
            )
        if sub.basis != tuple(tuple(r) for r in rows):
            warnings.warn(f"basis not in reduced echelon form, canonicalized: {line!r}")
        return sub


def normals(s: Subspace) -> list[list[int]]:
    """A basis of the normals a of the hyperplanes a.x = 0 that hold s, one
    for each non-pivot column f of its echelon basis: a_f = 1 and
    a_p = -basis[i][f] at the pivot p of each row i.  Pivots before f are
    the only other nonzero entries, so the last nonzero coefficient is 1."""
    F, pivots = field(s.q), s.pivots()
    out = []
    for f in range(s.n):
        if f not in pivots:
            a = [int(j == f) for j in range(s.n)]
            for pc, row in zip(pivots, s.basis):
                a[pc] = F.neg(row[f])
            out.append(a)
    return out


def hyperplane(q: int, n: int, a) -> Subspace:
    """The hyperplane a.x = 0, its echelon basis written down directly: with
    c the last nonzero index of a, the rows e_i - (a_i / a_c) e_c for i < c,
    then e_i for i > c.  Column c is the only non-pivot column."""
    c = max((i for i, x in enumerate(a) if x), default=None)
    if c is None:
        raise ZeroVector(f"the zero vector in GF({q})^{n} is the normal of no hyperplane")
    F, units = field(q), Subspace.full(q, n).basis
    r = F.neg(F.inv(a[c]))
    ties = tuple(units[i][:c] + (F.mul(r, a[i]),) + units[i][c + 1 :] for i in range(c))
    return Subspace(q, n, ties + units[c + 1 :])


@lru_cache(maxsize=None)
def coordinate_hyperplane(q: int, n: int, i: int) -> Subspace:
    """The hyperplane v_i = 0, spanned by the other standard vectors."""
    return hyperplane(q, n, [int(c == i) for c in range(n)])


@lru_cache(maxsize=None)
def ratio_hyperplane(q: int, n: int, i: int, j: int, lam: int) -> Subspace:
    """The hyperplane v_j = lam * v_i for coordinates i < j, spanned by the
    unit vectors e_k for k other than i, j and by e_i + lam * e_j."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i} j={j} n={n}")
    if not 1 <= lam < q:
        raise ValueError(f"ratio must be a nonzero field element, got {lam}")
    return hyperplane(q, n, [field(q).neg(lam) if c == i else int(c == j) for c in range(n)])


def enumerate_subspaces(n: int, q: int, k: int):
    """All k-dimensional subspaces of GF(q)^n, streamed in a deterministic
    order, built directly in echelon form: choose pivot columns, then fill
    the free slots."""
    if k < 0 or k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        slots = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j not in pivots and j > pivots[i]
        ]
        for fill in itertools.product(range(q), repeat=len(slots)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(slots, fill):
                rows[i][j] = v
            yield Subspace(q, n, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# bitmask geometry
# ---------------------------------------------------------------------------


def _unit(t: int) -> str:
    """The one-digit string of the empty sum: '1' when it equals t."""
    return "0" if t else "1"


def _one_slice(q: int, run: int):
    """tail(t) when the slowest digit y_0 has the only nonzero coefficient,
    1: of its q slices, run characters each, y_0 = t is all '1's."""

    def base(t: int) -> str:
        return "0" * (t * run) + "1" * run + "0" * ((q - 1 - t) * run)

    return base


def _join(F: GF, tails: list[str], neg_c: int):
    """tail(t) for a nonzero coefficient c of the slowest digit y_0, given
    the tails of the digits below: tails[t - c y_0] for y_0 = 0 to q - 1."""
    ys = range(F.q)

    def base(t: int) -> str:
        return "".join([tails[u] for u in F.axpy(neg_c, ys, [t] * F.q)])

    return base


class Geometry:
    """The points of one (n, q); subsets of PG(n-1, q) as int bitmasks."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.F: GF = field(q)
        self.full_mask: int = (1 << gaussian_binomial(n, 1, q)) - 1
        self._mask_cache: dict[Subspace, int] = {}
        self._subspace_cache: dict[int, list[Subspace]] = {}

    @cached_property
    def points(self) -> list[tuple[int, ...]]:
        """Every point, in lexicographic order; built on first read, since
        masks need only the count."""
        return list(enumerate_points(self.n, self.q))

    def rank(self, p) -> int:
        """Index of a canonical point in `points`, in closed form.  With m
        coordinates after the leading 1, the point's lead block starts at
        1 + q + ... + q^(m-1), and those coordinates are base-q digits, so
        the index is those coordinates plus one each, read in base q.
        KeyError for anything that is not a point of this geometry: the
        point of that index rules out a wrong length, range or lead."""
        try:
            i = 0
            for c in p[p.index(1) + 1 :]:
                i = i * self.q + c + 1
            if type(i) is int and self.point(i) == p:
                return i
        except (AttributeError, IndexError, TypeError, ValueError):
            pass
        raise KeyError(p)

    def point(self, i: int) -> tuple[int, ...]:
        """The point of index i in `points`, in closed form: the inverse of
        `rank`.  Lead blocks hold 1, q, q^2, ... points in turn, and the
        coordinates after a point's leading 1 are the base-q digits of its
        offset within its block.  IndexError outside the point range."""
        if not 0 <= i < self.full_mask.bit_length():
            raise IndexError(f"point index {i} out of range")
        q, m, size = self.q, 0, 1
        while i >= size:
            i -= size
            m, size = m + 1, size * q
        digits = []
        for _ in range(m):
            i, d = divmod(i, q)
            digits.append(d)
        return (0,) * (self.n - 1 - m) + (1,) + tuple(reversed(digits))

    def mask(self, s: Subspace) -> int:
        """Bitmask of the projective points inside a subspace.

        It is the AND of the masks of the hyperplanes a.x = 0 that cut it
        out, one for each of its `normals`.  Neither step loops over points
        (see `_hyperplane_mask`).
        """
        got = self._mask_cache.get(s)
        if got is not None:
            return got
        if (s.q, s.n) != (self.q, self.n):
            raise DimensionMismatch(
                f"GF({s.q})^{s.n} subspace in PG({self.n - 1}, {self.q})"
            )
        if s.k == 1:  # a point is its bit; cached, P point masks hold P^2 bits
            return 1 << self.rank(s.basis[0])
        m = self.full_mask
        for a in normals(s):
            m &= self._hyperplane_mask(a)
        self._mask_cache[s] = m
        return m

    def _hyperplane_mask(self, a: list[int]) -> int:
        """Bitmask of the hyperplane a.x = 0, with no loop over points.  The
        last nonzero coefficient of a must be 1, as in the `normals` of an
        echelon basis.

        Lead block l of `points` holds the points (0^l, 1, y), y in base-q
        order with y_0 the slowest digit; such a point lies on the hyperplane
        when a_{l+1} y_0 + a_{l+2} y_1 + ... = -a_l.  For every l at once,
        tail(t) is the '0'/'1' string of the y with that sum equal to t.  It
        is built one base-q digit at a time from the last coordinate up, as
        base(t) repeated reps times:

        - while every coefficient below is 0, base(t) is '1' for t = 0 and
          '0' otherwise;
        - the deepest nonzero coefficient, 1, makes the slice y_0 = t one
          run of '1's;
        - a zero coefficient repeats tail q times;
        - any other coefficient c joins tail(t - c y_0) for y_0 = 0 to q - 1.
        """
        F, q = self.F, self.q
        ys = range(q)
        base, reps = _unit, 1
        blocks = []
        for lead in range(self.n - 1, -1, -1):
            c = a[lead]
            blocks.append(base(F.neg(c)) * reps)
            if not c:
                reps *= q
            elif base is _unit:
                base, reps = _one_slice(q, reps), 1
            elif lead:  # lead block 0 is the last, and needs no tail
                base, reps = _join(F, [base(t) * reps for t in ys], F.neg(c)), 1
        return int("".join(blocks)[::-1], 2)

    def pencil(self, u: Subspace) -> list[Subspace]:
        """The q+1 hyperplanes containing a subspace u of dimension n-2,
        sorted by basis tuple.  With a, b the two `normals` of u, they are
        the hyperplanes of a and of t*a + b for t in GF(q)."""
        if u.k != self.n - 2:
            raise WrongDimension(f"need dimension {self.n - 2}, got {u.k}")
        a, b = normals(u)
        tops = [a] + [self.F.axpy(t, a, b) for t in range(self.q)]
        return sorted((hyperplane(self.q, self.n, v) for v in tops), key=lambda h: h.basis)

    def subspaces(self, k: int) -> list[Subspace]:
        got = self._subspace_cache.get(k)
        if got is None:
            got = list(enumerate_subspaces(self.n, self.q, k))
            self._subspace_cache[k] = got
        return got

    def lowest_point(self, m: int) -> tuple[int, ...]:
        """The point of lowest index in a nonempty mask."""
        return self.point((m & -m).bit_length() - 1)


@lru_cache(maxsize=None)
def geometry(n: int, q: int) -> Geometry:
    """Shared Geometry of PG(n-1, q).  Raises TooLarge, before enumerating
    anything, when the point count exceeds DEFAULT_POINT_CAP."""
    point_count(n, q, DEFAULT_POINT_CAP)
    return Geometry(n, q)
