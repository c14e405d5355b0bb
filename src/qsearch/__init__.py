"""Search for an unknown line through the origin in GF(q)^n.

The package has three layers: exact finite-field and projective-geometry
primitives (`gf`, `projspace`), non-adaptive separating systems of subspace
membership queries (`separating`), and the adaptive question-answer game
with searcher and oracle strategies plus bound computations (`game`,
`bounds`).  The `qsearch` console script exposes the lot.
"""

# the public names of each module, imported on first use, so that
# `import qsearch.cli` loads only the modules its command runs
_PUBLIC = {
    "gf": ("GF", "NotAPrimePower", "field"),
    "projspace": (
        "Subspace", "gaussian_binomial", "geometry", "enumerate_points", "enumerate_subspaces"
    ),
    "separating": ("QuerySet", "is_separating", "explicit_construction"),
    "game": ("Transcript", "run_game", "searcher_from_name", "oracle_from_name"),
    "bounds": ("adaptive_bounds", "katona_lower", "n3_specials"),
}
_HOMES = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


__version__ = "0.1.0"
