"""Non-adaptive separating systems of subspace membership queries.

A query set over GF(q)^n is separating when every projective point gets a
distinct yes/no signature across the queries; asking them all in one batch
then identifies any unknown 1-dimensional subspace.  This module builds
such systems (deterministic and randomized), verifies and reduces them,
rewrites point queries into hyperplane queries in dimension 3, and finds
exact minima by exhaustive search on small instances.

Every separation question reads one table, `_rows`: each point's answer
vector as a row of bytes whose bit j answers query j, with a one-byte key
per row.  The verdict holds one key's rows at a time; `signatures` reads
the rows as ints.  The pencil count behind `oracle claim-count` reads one
such table per pencil, transposed so each point's pencil signatures sit
in one tuple.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import chain, combinations
from pathlib import Path

from .gf import field
from .projspace import (
    DimensionMismatch,
    Subspace,
    TooLarge,
    WrongDimension,
    coordinate_hyperplane,
    enumerate_subspaces,
    gaussian_binomial,
    geometry,
    normalize,
    point_count,
    ratio_hyperplane,
)
from .record import Record, _set


class NotSeparating(ValueError):
    """Operation requires a separating query set."""


class RetriesExhausted(RuntimeError):
    """Randomized construction failed every allowed attempt."""


class Exhausted(RuntimeError):
    """Exhaustive search ran out of sizes without finding a system."""


class QuerySet(Record):
    """An ordered batch of subspace membership queries over GF(q)^n."""

    __slots__ = _fields = ("q", "n", "queries")

    def __init__(self, q: int, n: int, queries: tuple[Subspace, ...]):
        for s in queries:
            if (s.q, s.n) != (q, n):
                raise DimensionMismatch(f"query over GF({s.q})^{s.n} in a GF({q})^{n} set")
            if not 1 <= s.k <= n - 1:
                raise WrongDimension(f"query dimension {s.k} outside [1, {n - 1}]")
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "queries", queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def save(self, path) -> None:
        lines = [f"{self.q} {self.n} {len(self.queries)}"]
        lines += [s.literal() for s in self.queries]
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "QuerySet":
        text = Path(path).read_text().strip().splitlines()
        if not text:
            raise ValueError(f"empty query set file: {path}")
        head = text[0].split()
        if len(head) != 3:
            raise ValueError(f"bad header {text[0]!r}, expected 'q n count'")
        q, n, count = (int(x) for x in head)
        field(q)  # the order must name a field even when no query follows
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        body = [ln for ln in text[1:] if ln.strip()]
        if len(body) != count:
            raise ValueError(f"header promises {count} queries, found {len(body)}")
        queries = tuple(Subspace.parse(ln) for ln in body)
        return QuerySet(q, n, queries)


# _LANE_BITS[b] maps a mask's '0'/'1' digits to bit b of a lane byte
_LANE_BITS = [bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8)]

# Largest answer-vector table, in bytes, that `_rows` builds.  It admits
# every `construct` under the point cap for n >= 3, the largest being the
# random system of PG(2, 997) at 744 MB; at n = 2 it stops at q = 92,671.
TABLE_BYTE_CAP = 2**30


def _rows(qs: QuerySet) -> tuple[bytes, int, int]:
    """The answer-vector table: one W-byte row per point, in
    geometry(n, q).points order, whose byte L holds queries 8L to 8L + 7.
    Each mask's digits become bit b of one byte per point, eight masks
    are ORed into a lane, and a strided slice writes the lane to every
    row.  The key is the XOR of the lanes: byte i of
    key.to_bytes(P, "little") is the XOR of point i's row.  Raises TooLarge,
    before any mask is built, when the table exceeds TABLE_BYTE_CAP."""
    geom = geometry(qs.n, qs.q)
    P, queries = geom.full_mask.bit_length(), qs.queries
    W = max(1, -(-len(queries) // 8))  # bytes per row
    if P * W > TABLE_BYTE_CAP:
        msg = f"a {P} x {W}-byte separation table exceeds the cap of {TABLE_BYTE_CAP} bytes"
        raise TooLarge(msg)
    buf = bytearray(P * W)
    key = 0
    for L in range(W):
        lane = 0
        for b, s in enumerate(queries[8 * L : 8 * L + 8]):
            bits = format(geom.mask(s), f"0{P}b").encode().translate(_LANE_BITS[b])
            lane |= int.from_bytes(bits, "big")  # byte i holds point i's bit b
        key ^= lane
        buf[L::W] = lane.to_bytes(P, "little")
    return bytes(buf), W, key  # slices of bytes are cheaper rows


def signatures(qs: QuerySet) -> list[int]:
    """Answer vector of every point, in geometry(n, q).points order: bit j
    is set when the point lies in query j.  `_rows` read as ints."""
    data, W, _ = _rows(qs)
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + W], "little") for i in range(0, len(data), W)]


def separating_witness(qs: QuerySet) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """None when separating, else the lexicographically first colliding pair:
    the two lowest points of the colliding class whose lowest comes first.

    Equal rows have equal keys, so only one key's rows are held at a time:
    its points are walked in index order with a dict from row to first
    point, and the repeat whose first point is lowest wins.  The pair is
    named by `Geometry.point` without listing the geometry.  Collisions
    depend only on the set of queries: each distinct query is tabled once."""
    data, W, key = _rows(QuerySet(qs.q, qs.n, tuple(dict.fromkeys(qs.queries))))
    keys = key.to_bytes(len(data) // W, "little")
    pair = None
    for k in set(keys):
        first = {}
        i = keys.find(k)
        while i >= 0:
            f = first.setdefault(data[i * W : i * W + W], i)
            if f != i and (pair is None or f < pair[0]):
                pair = (f, i)
            i = keys.find(k, i + 1)
    return None if pair is None else tuple(map(geometry(qs.n, qs.q).point, pair))


def is_separating(qs: QuerySet) -> bool:
    return separating_witness(qs) is None


# ---------------------------------------------------------------------------
# deterministic constructions
# ---------------------------------------------------------------------------


def explicit_construction(n: int, q: int) -> QuerySet:
    """Separating system of n + C(n,2)(q-2) hyperplanes.

    Coordinate hyperplanes fix the zero pattern of the hidden point; the
    ratio hyperplanes v_j = lam v_i, with lam running over all but one
    nonzero element, pin down each coordinate ratio.  One ratio value per
    pair can be dropped because only one of the q-1 possible values ever
    needs ruling out implicitly.
    """
    queries = [coordinate_hyperplane(q, n, i) for i in range(n)]
    pairs = combinations(range(n), 2)
    queries += [ratio_hyperplane(q, n, i, j, lam) for i, j in pairs for lam in range(1, q - 1)]
    return QuerySet(q, n, tuple(queries))


# ---------------------------------------------------------------------------
# randomized construction
# ---------------------------------------------------------------------------


def _random_subspace(rng: random.Random, n: int, q: int, k: int) -> Subspace:
    """Uniform k-dimensional subspace by rejection on full-rank matrices."""
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        s = Subspace.span(q, n, rows)
        if s.k == k:
            return s


# attempts random_construction_trace makes before it gives up
MAX_RETRIES = 64


def random_construction_trace(n: int, q: int, seed: int) -> tuple[QuerySet, int]:
    """Random pencil construction; returns the system and the attempt count.

    Each attempt draws 2n independent uniform (n-2)-dimensional subspaces
    and takes, for each, all hyperplanes through it except the last in
    basis order: 2nq queries total.
    """
    if n < 3:
        raise WrongDimension(f"need n >= 3 for nonzero (n-2)-subspaces, got n={n}")
    geom = geometry(n, q)
    rng = random.Random(f"construct:{seed}")
    for attempt in range(1, MAX_RETRIES + 1):
        queries = []
        for _ in range(2 * n):
            u = _random_subspace(rng, n, q, n - 2)
            queries.extend(geom.pencil(u)[:-1])
        qs = QuerySet(q, n, tuple(queries))
        if is_separating(qs):
            return qs, attempt
    raise RetriesExhausted(
        f"no separating system for n={n} q={q} seed={seed} in {MAX_RETRIES} attempts"
    )


def unseparated_pencil_count(n: int, q: int) -> int:
    """For any fixed pair of distinct points, the number of (n-2)-dimensional
    subspaces whose full pencil of hyperplanes fails to tell them apart."""
    return (q - 1) * gaussian_binomial(n - 1, n - 3, q) - (q - 2) * gaussian_binomial(
        n - 2, n - 4, q
    )


@lru_cache(maxsize=None)
def _pencil_signatures(n: int, q: int) -> list[tuple[int, ...]]:
    """Per point, its signature under the pencil through each
    (n-2)-subspace: the pencils' signature tables, transposed."""
    geom = geometry(n, q)
    pencils = (QuerySet(q, n, tuple(geom.pencil(s))) for s in geom.subspaces(n - 2))
    return list(zip(*(signatures(qs) for qs in pencils)))


def count_unseparated_bruteforce(
    n: int, q: int, u: tuple[int, ...], v: tuple[int, ...]
) -> int:
    """Brute-force unseparated_pencil_count: pencils giving u and v equal signatures."""
    geom = geometry(n, q)
    i, j = (geom.rank(normalize(q, p)) for p in (u, v))
    if i == j:
        raise ValueError("points must be distinct")
    cols = _pencil_signatures(n, q)
    return sum(map(operator.eq, cols[i], cols[j]))


# ---------------------------------------------------------------------------
# reduction and rewriting
# ---------------------------------------------------------------------------


def minimal_subsystem(qs: QuerySet) -> QuerySet:
    """Greedy one-pass reduction to an irredundant separating subsystem.

    A query dropped here stays droppable after later removals shrink the
    set further, so a single reverse sweep reaches a minimal system.
    """
    sigs = signatures(qs)
    if len(set(sigs)) < len(sigs):
        u, v = separating_witness(qs)
        raise NotSeparating(f"cannot reduce a non-separating system: {u} and {v} collide")
    kept = (1 << len(qs)) - 1
    for i in range(len(qs) - 1, -1, -1):
        trial = kept & ~(1 << i)
        if len({s & trial for s in sigs}) == len(sigs):
            kept = trial
    queries = tuple(s for i, s in enumerate(qs.queries) if kept >> i & 1)
    return QuerySet(qs.q, qs.n, queries)


def points_to_lines(qs: QuerySet) -> QuerySet:
    """Rewrite a mixed point/line system over GF(q)^3 into an all-line
    separating system of the same (minimal) size.

    In a minimal system a point query P can collide with at most one other
    point Q once removed: two such points would answer NO to P's query and
    match P everywhere else, so they would collide with each other.  A line
    through P avoiding Q restores separation.
    Such a line is never already present: any line of the system through P
    would give Q a matching yes.  One signature table serves every rewrite:
    Q's row is P's without the bit of P's query, which the line's points then take.
    """
    if qs.n != 3:
        raise WrongDimension(f"point-to-line rewriting needs n=3, got n={qs.n}")
    qs = minimal_subsystem(qs)
    geom = geometry(3, qs.q)
    queries = list(qs.queries)
    sigs = signatures(qs)
    for idx, s in enumerate(qs.queries):
        if s.k != 1:
            continue
        i, bit = geom.rank(s.basis[0]), 1 << idx
        try:
            j = sigs.index(sigs[i] & ~bit)
        except ValueError:  # the other queries already separate P
            lines = chain(geom.pencil(s), enumerate_subspaces(3, qs.q, 2))
            choice = next(ln for ln in lines if ln not in queries)
        else:
            partner = geom.point(j)
            choice = next(ln for ln in geom.pencil(s) if not ln.contains(partner))
        queries[idx] = choice
        sigs[i] &= ~bit
        m = geom.mask(choice)
        while m:
            sigs[(m & -m).bit_length() - 1] |= bit
            m &= m - 1
    out = QuerySet(qs.q, 3, tuple(queries))
    if not is_separating(out):
        raise AssertionError("rewriting broke separation")  # unreachable
    return out


# ---------------------------------------------------------------------------
# exact minima
# ---------------------------------------------------------------------------

BRUTE_POINT_CAP = 48
BRUTE_SIZE_CAP = 8


def brute_force_minimum(
    n: int,
    q: int,
    max_size: int = BRUTE_SIZE_CAP,
    restrict_to_hyperplanes: bool = True,
) -> QuerySet:
    """Smallest separating system of hyperplane queries (or of arbitrary
    proper subspaces when the flag is off), by iterative deepening over the
    query count with partition-refinement pruning.  Deterministic: returns
    the first witness in enumeration order."""
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    if max_size > BRUTE_SIZE_CAP:
        raise TooLarge(f"size cap is {BRUTE_SIZE_CAP}, asked for {max_size}")
    point_count(n, q, BRUTE_POINT_CAP)
    geom = geometry(n, q)
    if restrict_to_hyperplanes:
        universe = list(geom.subspaces(n - 1))
    else:
        universe = [s for k in range(1, n) for s in geom.subspaces(k)]
    masks = [geom.mask(s) for s in universe]

    def dfs(start: int, classes: list[int], chosen: list[int], budget: int):
        # classes holds only the unfinished (multi-point) cells
        if not classes:
            return list(chosen)
        worst = max(c.bit_count() for c in classes)
        if (worst - 1).bit_length() > budget:
            return None
        for i in range(start, len(masks)):
            m = masks[i]
            if all(not (c & m) or (c & m) == c for c in classes):
                continue
            chosen.append(i)
            nxt = [d for c in classes for d in (c & m, c & ~m) if d.bit_count() > 1]
            got = dfs(i + 1, nxt, chosen, budget - 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    start_classes = [c for c in (geom.full_mask,) if c.bit_count() > 1]
    for size in range(max_size + 1):
        got = dfs(0, start_classes, [], size)
        if got is not None:
            return QuerySet(q, n, tuple(universe[i] for i in got))
    raise Exhausted(f"no separating system of at most {max_size} hyperplanes")
