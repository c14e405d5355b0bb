"""Search for an unknown line through the origin in GF(q)^n.

The package has three layers: exact finite-field and projective-geometry
primitives (`gf`, `projspace`), non-adaptive separating systems of subspace
membership queries (`separating`), and the adaptive question-answer game
with searcher and oracle strategies plus bound computations (`game`,
`bounds`).  The `qsearch` console script exposes the lot.
"""

from .gf import GF, NotAPrimePower, field
from .projspace import (
    Subspace,
    gaussian_binomial,
    geometry,
    enumerate_points,
    enumerate_subspaces,
)
from .separating import QuerySet, is_separating, explicit_construction
from .game import Transcript, run_game, searcher_from_name, oracle_from_name
from .bounds import adaptive_bounds, katona_lower, n3_specials

__all__ = [
    "GF",
    "NotAPrimePower",
    "field",
    "Subspace",
    "gaussian_binomial",
    "geometry",
    "enumerate_points",
    "enumerate_subspaces",
    "QuerySet",
    "is_separating",
    "explicit_construction",
    "Transcript",
    "run_game",
    "searcher_from_name",
    "oracle_from_name",
    "adaptive_bounds",
    "katona_lower",
    "n3_specials",
]

__version__ = "0.1.0"
