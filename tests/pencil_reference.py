"""Slow first versions kept as test references.

- `column_sweep_rref`, the column-by-column Gauss-Jordan sweep that `rref`
  was before it folded `echelon_insert` over the rows: the reference for
  `rref`, `Subspace.contains`, `echelon_insert` and the adversary's `_rank`.
- Pencils by basis extension and one elimination per member: the reference
  that `Geometry.pencil` and the inductive plan's pencil-and-lift oracle in
  test_game.py are checked against."""

from qsearch.gf import field
from qsearch.projspace import DimensionMismatch, Subspace, WrongDimension


def column_sweep_rref(q: int, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q) by a sweep over the columns:
    swap a pivot row up, scale it and clear its column from every other
    row.  Zero rows are dropped."""
    F = field(q)
    mat = [list(r) for r in rows]
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise DimensionMismatch("ragged matrix")
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = F.axpy(F.inv(mat[rank][col]), mat[rank], [0] * ncols)
        for r in range(nrows):
            if r != rank and mat[r][col]:
                mat[r] = F.axpy(F.neg(mat[r][col]), mat[rank], mat[r])
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in mat[:rank])


def basis_extension(s: Subspace, vectors) -> list[tuple[int, ...]]:
    """The vectors, in order, that each enlarge the span of s and of the
    vectors kept before them."""
    out = []
    for v in vectors:
        if s.k == s.n:
            break
        if not s.contains(v):
            out.append(v)
            s = Subspace.span(s.q, s.n, s.basis + (v,))
    return out


def pencil_within(ctx: Subspace, u: Subspace) -> list[Subspace]:
    """The q+1 subspaces of ctx one dimension below it that contain u, a
    subspace of ctx of dimension ctx.k - 2, sorted by basis tuple.

    With a, b extending u to ctx, they are span(u, a) and span(u, t*a + b)
    for t in GF(q)."""
    if u.k != ctx.k - 2:
        raise WrongDimension(f"need dimension {ctx.k - 2}, got {u.k}")
    q, n = ctx.q, ctx.n
    F = field(q)
    a, b = basis_extension(u, ctx.basis)
    tops = [a] + [tuple(F.axpy(t, a, b)) for t in range(q)]
    out = [Subspace.span(q, n, u.basis + (v,)) for v in tops]
    out.sort(key=lambda s: s.basis)
    return out
