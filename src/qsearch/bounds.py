"""Closed-form bounds on adaptive and non-adaptive query counts.

Every figure is wrapped with a tag naming the method that produced it, and
real-valued bounds keep an exact rational alongside the float whenever one
exists, so comparisons never hinge on silent rounding.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .gf import factor_prime_power
from .projspace import TooLarge, gaussian_binomial
from .record import Record, _set

# fractions and csv are imported by the functions that use them, so a
# process that never builds a bounds report does not load them
if TYPE_CHECKING:
    from fractions import Fraction


class TaggedValue(Record):
    """A bound figure: float approximation, method tag, exact value when
    the quantity is rational."""

    __slots__ = _fields = ("value", "tag", "exact")

    def __init__(self, value: float, tag: str, exact: Fraction | None = None):
        _set(self, "value", value)
        _set(self, "tag", tag)
        _set(self, "exact", exact)


def _exact(value, tag: str) -> TaggedValue:
    from fractions import Fraction

    f = Fraction(value)
    return TaggedValue(float(f), tag, f)


def adaptive_bounds(n: int, q: int) -> tuple[float, int]:
    """Bracket for the optimal adaptive query count.

    Lower: log2 of the number of points (each answer is one bit); for q=2
    this is rounded up to exactly n, where the bracket closes.  Upper: the
    pencil-descent strategy's (q-1)(n-1)+1.  That upper end is the exact
    optimum A(n, q) at every n and q, by Jamison's covering theorem (JCTA
    22, 1977) and its dual by Brouwer and Schrijver (JCTA 24, 1978); the
    `AdversaryOracle` docstring gives the proof.
    """
    npoints = gaussian_binomial(n, 1, q)
    if q == 2:
        lower = float((npoints - 1).bit_length())
    else:
        lower = math.log2(npoints)
    return lower, (q - 1) * (n - 1) + 1


class KatonaBound(Record):
    """Non-adaptive information-style lower bound, in its direct form and
    the weaker closed form used for asymptotics."""

    __slots__ = _fields = ("value", "simplified")

    def __init__(self, value: float, simplified: float):
        _set(self, "value", value)
        _set(self, "simplified", simplified)


def katona_lower(n: int, q: int) -> KatonaBound:
    """Lower bound for non-adaptive systems whose queries each contain at
    most m of the M points, with M, m the point counts of the whole space
    and of a hyperplane."""
    M = gaussian_binomial(n, 1, q)
    m = (M - 1) // q  # M = 1 + q m, so m needs no second q^n-sized power
    ratio = M / m  # correctly rounded, as float(Fraction(M, m)) is
    value = ratio * math.log2(M) / math.log2(math.e * ratio)
    simplified = (n - 1) * q * math.log2(q) / (2 + math.log2(ratio))
    return KatonaBound(value=value, simplified=simplified)


def nonadaptive_upper(n: int, q: int) -> tuple[int, int]:
    """Upper bounds on the optimal non-adaptive query count: the sizes of
    the coordinate-ratio construction and of the random pencil bundle, 2nq."""
    return n + (n * (n - 1) // 2) * (q - 2), 2 * n * q


class N3Specials(Record):
    """Plane-specific lower-bound landscape: the best applicable double
    blocking number bound, the derived minimum-system bound, and the known
    exact minimum for large square orders."""

    __slots__ = _fields = ("tau2_bound", "ht_lower", "exact_m3q")

    def __init__(self, tau2_bound: TaggedValue, ht_lower: TaggedValue,
                 exact_m3q: int | None):
        _set(self, "tau2_bound", tau2_bound)
        _set(self, "ht_lower", ht_lower)
        _set(self, "exact_m3q", exact_m3q)


def n3_specials(q: int) -> N3Specials | None:
    """Special bounds for n=3; None below q=3 where none of them apply."""
    if q < 3:
        return None
    from fractions import Fraction

    p, e = factor_prime_power(q)
    cands = [_exact(2 * q + 1, "double-blocking-counting")]
    if q >= 9:
        r = math.isqrt(q)
        if r * r == q:
            cands.append(_exact(2 * (q + r + 1), "double-blocking-sqrt"))
        else:
            cands.append(
                TaggedValue(2 * (q + math.sqrt(q) + 1), "double-blocking-sqrt")
            )
    if e == 1 and q > 3:
        cands.append(_exact(Fraction(5 * (q + 1), 2), "double-blocking-prime"))
    if e >= 3 and e % 2 == 1:
        c_p = 2.0 ** (-1.0 / 3.0) if p in (2, 3) else 1.0
        cands.append(
            TaggedValue(
                2 * (q + 1) + c_p * q ** (2.0 / 3.0), "double-blocking-odd-power"
            )
        )
    tau2 = max(cands, key=lambda tv: tv.value)
    arm = Fraction(9 * q - 12, 4)  # 2q + q/4 - 3
    if float(arm) <= tau2.value - 2:
        ht = TaggedValue(float(arm), "semi-resolving", arm)
    else:
        ht = TaggedValue(
            tau2.value - 2,
            f"{tau2.tag}-minus-2",
            tau2.exact - 2 if tau2.exact is not None else None,
        )
    r = math.isqrt(q)
    exact = 2 * q + 2 * r if (r * r == q and q >= 121) else None
    return N3Specials(tau2_bound=tau2, ht_lower=ht, exact_m3q=exact)


# Largest n * q.bit_length() a report takes on: the point count q^n is an
# exact int of about that many bits, and building it is the report's cost.
BOUNDS_BIT_CAP = 10**7


def bounds_report(n: int, q: int) -> list[tuple]:
    """All brackets for one (n, q) as rows in BOUNDS_CSV_COLUMNS order: the
    six core bounds, then the n=3 specials when there are any.  Raises
    TooLarge, before any count, when n * bits(q) exceeds BOUNDS_BIT_CAP."""
    bits = n * q.bit_length()
    if bits > BOUNDS_BIT_CAP:
        raise TooLarge(f"n * bits(q) = {bits} exceeds the cap of {BOUNDS_BIT_CAP}")
    lower, upper = adaptive_bounds(n, q)
    kat = katona_lower(n, q)
    explicit, random = nonadaptive_upper(n, q)
    tagged = [
        ("adaptive_lower",
         _exact(n, "info-theoretic") if q == 2 else TaggedValue(lower, "info-theoretic")),
        ("adaptive_upper", _exact(upper, "pencil-descent")),
        ("nonadaptive_lower_katona", TaggedValue(kat.value, "katona")),
        ("nonadaptive_lower_asymptotic", TaggedValue(kat.simplified, "katona-asymptotic")),
        ("nonadaptive_upper_explicit", _exact(explicit, "coordinate-ratio-hyperplanes")),
        ("nonadaptive_upper_random", _exact(random, "random-pencils")),
    ]
    sp = n3_specials(q) if n == 3 else None
    if sp is not None:
        tagged += [("n3_tau2_bound", sp.tau2_bound), ("n3_ht_lower", sp.ht_lower)]
        if sp.exact_m3q is not None:
            tagged.append(("n3_exact_m3q", _exact(sp.exact_m3q, "exact-square")))
    return [(n, q, name, tv.tag, tv.value, tv.exact) for name, tv in tagged]


BOUNDS_CSV_COLUMNS = ("n", "q", "name", "tag", "value", "exact")


def write_bounds_csv(stream, rows) -> None:
    """The header, then the rows; `exact` is written as a rational string,
    or empty when the bound has no exact value."""
    import csv

    w = csv.writer(stream)
    w.writerow(BOUNDS_CSV_COLUMNS)
    w.writerows(rows)  # csv writes None as an empty field


def bounds_dict(rows: list[tuple]) -> dict:
    """One report's rows as JSON: {value, tag[, exact]} per bound, the n3_
    rows nested under n3_specials without their prefix, and exact_m3q an
    int, or None when there is no such row."""
    out = {"n": rows[0][0], "q": rows[0][1]}
    for _, _, name, tag, value, exact in rows:
        d = {"value": value, "tag": tag}
        if exact is not None:
            d["exact"] = str(exact)
        if name.startswith("n3_"):
            sp = out.setdefault("n3_specials", {"exact_m3q": None})
            sp[name[3:]] = int(exact) if name == "n3_exact_m3q" else d
        else:
            out[name] = d
    return out
