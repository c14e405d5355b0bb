"""The slotted read-only records behave as the frozen dataclasses they
replaced.

The dataclass definitions below are the oracle, field for field as the
records are declared.  Every record is built both ways from the
same values, by position and by keyword, and the two must agree on ==,
hash, repr, field values, defaults and read-only fields."""

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qsearch import bounds, game, projspace, separating
from qsearch.projspace import DimensionMismatch, WrongDimension, geometry
from qsearch.record import Record


@dataclass(frozen=True)
class Subspace:
    q: int
    n: int
    basis: tuple


@dataclass(frozen=True)
class Answer:
    yes: bool
    volunteered: tuple | None = None


@dataclass(frozen=True)
class GameView:
    geom: object
    asked: int
    candidates: int


@dataclass(frozen=True)
class Transcript:
    n: int
    q: int
    searcher: str
    oracle: str
    entries: tuple
    outcome: dict
    count: int


@dataclass(frozen=True)
class QuerySet:
    q: int
    n: int
    queries: tuple

    def __post_init__(self):
        for s in self.queries:
            if (s.q, s.n) != (self.q, self.n):
                raise DimensionMismatch(
                    f"query over GF({s.q})^{s.n} in a GF({self.q})^{self.n} set"
                )
            if not 1 <= s.k <= self.n - 1:
                raise WrongDimension(f"query dimension {s.k} outside [1, {self.n - 1}]")


@dataclass(frozen=True)
class TaggedValue:
    value: float
    tag: str
    exact: Fraction | None = None


@dataclass(frozen=True)
class KatonaBound:
    value: float
    simplified: float


@dataclass(frozen=True)
class N3Specials:
    tau2_bound: TaggedValue
    ht_lower: TaggedValue
    exact_m3q: int | None


def _values(rec, oracle) -> tuple:
    return tuple(getattr(rec, f.name) for f in dataclasses.fields(oracle))


PLANE = projspace.Subspace(3, 3, ((1, 0, 0),))
LINE = projspace.Subspace(3, 3, ((1, 0, 0), (0, 1, 2)))
G33 = geometry(3, 3)
SP9 = bounds.n3_specials(9)
T = game.run_game(game.PlaneSearcher(3), game.FixedOracle(3, (0, 1, 2)), 3, 3)

# Field values for each record, equal and unequal ones side by side: some
# pairs differ in one field only, and a few values are equal but built apart.
CASES = [
    (projspace.Subspace, Subspace, [
        (3, 3, ((1, 0, 0),)),
        (3, 3, tuple([(1, 0, 0)])),
        (3, 3, ((0, 1, 0),)),
        (5, 3, ((1, 0, 0),)),
        (3, 3, ()),
        (3, 4, ()),
        (3, 3, ((1, 0, 0), (0, 1, 2))),
    ]),
    (game.Answer, Answer, [
        (True,),
        (False,),
        (False, None),
        (False, ("in-line", LINE)),
        (False, ("not-in-line", LINE)),
        (True, ("in-line", LINE)),
    ]),
    (game.GameView, GameView, [
        (G33, 0, G33.full_mask),
        (G33, 0, 1),
        (G33, 1, 1),
        (G33, 2, 1),
        (geometry(3, 2), 0, 1),
        (geometry(2, 3), 0, 1),
    ]),
    (game.Transcript, Transcript, [
        _values(T, Transcript),
        (3, 3, "plane", "fixed:0,1,2", (), {"identified": [0, 1, 2]}, 0),
        (3, 3, "plane", "fixed:0,1,2", (), {"aborted": "query-limit"}, 0),
        (3, 3, "plane", "adversary", (), {"aborted": "query-limit"}, 0),
    ]),
    (separating.QuerySet, QuerySet, [
        (3, 3, (PLANE, LINE)),
        (3, 3, tuple([PLANE, LINE])),
        (3, 3, (PLANE,)),
        (3, 3, (LINE, PLANE)),
        (3, 3, ()),
        (3, 4, ()),
    ]),
    (bounds.TaggedValue, TaggedValue, [
        (5.0, "pencil-descent", Fraction(5)),
        (5.0, "pencil-descent"),
        (5.0, "pencil-descent", None),
        (5.0, "info-theoretic"),
        (4.5, "pencil-descent"),
        (bounds.adaptive_bounds(3, 9)[0], "info-theoretic"),
    ]),
    (bounds.KatonaBound, KatonaBound, [
        (1.5, 2.5),
        (1.5, 2.0),
        (2.5, 1.5),
    ]),
    (bounds.N3Specials, N3Specials, [
        _values(SP9, N3Specials),
        (SP9.tau2_bound, SP9.ht_lower, 24),
        (SP9.ht_lower, SP9.tau2_bound, None),
    ]),
]
IDS = [old.__name__ for _, old, _ in CASES]


def _hash_or_error(rec):
    try:
        return hash(rec)
    except TypeError as exc:  # a Transcript's outcome is a dict
        return str(exc)


def test_every_record_has_an_oracle():
    assert sorted(IDS) == sorted(
        name
        for mod in (projspace, game, separating, bounds)
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and issubclass(obj, Record)
    )


@pytest.mark.parametrize("new, old, cases", CASES, ids=IDS)
def test_fields_repr_and_hash_match_the_dataclass(new, old, cases):
    names = tuple(f.name for f in dataclasses.fields(old))
    assert new._fields == names
    for args in cases:
        a, b = new(*args), old(*args)
        full = [getattr(b, f) for f in names]
        assert [getattr(a, f) for f in names] == full
        assert repr(a) == repr(b)
        assert _hash_or_error(a) == _hash_or_error(b)
        by_keyword = new(**dict(zip(names, args)))
        assert by_keyword == a and repr(by_keyword) == repr(a)
        assert new(*full) == a


@pytest.mark.parametrize("new, old, cases", CASES, ids=IDS)
def test_equality_matches_the_dataclass(new, old, cases):
    for x, y in itertools.product(cases, repeat=2):
        assert (new(*x) == new(*y)) == (old(*x) == old(*y)), (x, y)
        assert (new(*x) != new(*y)) == (old(*x) != old(*y)), (x, y)


@pytest.mark.parametrize("new, old, cases", CASES, ids=IDS)
def test_a_record_is_no_tuple(new, old, cases):
    for args in cases:
        rec = new(*args)
        values = tuple(getattr(rec, f) for f in rec._fields)
        assert rec != values and not rec == values
        assert old(*args) != values


def test_records_of_different_classes_never_compare_equal():
    oracle = {new: old for new, old, _ in CASES}
    k = bounds.KatonaBound(1.5, 2.5)
    same_values = [
        (game.GameView, bounds.TaggedValue, (k, 3, 4)),
        (bounds.KatonaBound, game.Answer, (True, None)),
        (projspace.Subspace, bounds.TaggedValue, (3, 3, ())),
    ]
    for new1, new2, args in same_values:
        assert not oracle[new1](*args) == oracle[new2](*args)
        assert not new1(*args) == new2(*args) and not new2(*args) == new1(*args)
        assert new1(*args) != new2(*args)


@pytest.mark.parametrize("new, old, cases", CASES, ids=IDS)
def test_fields_are_read_only(new, old, cases):
    for make in (new, old):
        rec = make(*cases[0])
        for name in [f.name for f in dataclasses.fields(old)] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert _values(rec, old) == _values(make(*cases[0]), old)


def test_defaults():
    assert bounds.TaggedValue(1.0, "t").exact is None is TaggedValue(1.0, "t").exact
    assert game.Answer(True).volunteered is None is Answer(True).volunteered


@pytest.mark.parametrize(
    "args, error",
    [
        ((3, 4, (PLANE,)), DimensionMismatch),
        ((5, 3, (PLANE,)), DimensionMismatch),
        ((3, 3, (projspace.Subspace.full(3, 3),)), WrongDimension),
        ((3, 3, (projspace.Subspace(3, 3, ()),)), WrongDimension),
    ],
)
def test_query_set_checks_its_queries(args, error):
    with pytest.raises(error) as new_exc:
        separating.QuerySet(*args)
    with pytest.raises(error) as old_exc:
        QuerySet(*args)
    assert str(new_exc.value) == str(old_exc.value)
