"""Pencils as first written, by basis extension and one elimination per
member: the reference that `Geometry.pencil` and the inductive plan's
pencil-and-lift oracle in test_game.py are checked against."""

from qsearch.gf import field
from qsearch.projspace import Subspace, WrongDimension


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
