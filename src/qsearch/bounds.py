"""Closed-form bounds on adaptive and non-adaptive query counts.

Every figure is wrapped with a tag naming the method that produced it, and
real-valued bounds keep an exact rational alongside the float whenever one
exists, so comparisons never hinge on silent rounding.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .gf import factor_prime_power
from .projspace import gaussian_binomial
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
    pencil-descent strategy's (q-1)(n-1)+1.
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


class NonadaptiveBounds(Record):
    __slots__ = _fields = ("katona", "upper_explicit", "upper_random")

    def __init__(self, katona: KatonaBound, upper_explicit: int, upper_random: int):
        _set(self, "katona", katona)
        _set(self, "upper_explicit", upper_explicit)
        _set(self, "upper_random", upper_random)


def nonadaptive_bounds(n: int, q: int) -> NonadaptiveBounds:
    """Bracket for the optimal non-adaptive query count: Katona-style
    lower, and both the coordinate-ratio construction size and the random
    pencil-bundle size 2nq as uppers."""
    explicit = n + (n * (n - 1) // 2) * (q - 2)
    return NonadaptiveBounds(
        katona=katona_lower(n, q),
        upper_explicit=explicit,
        upper_random=2 * n * q,
    )


class N3Specials(Record):
    """Plane-specific lower-bound landscape: the best applicable double
    blocking number bound, the derived minimum-system bound, and the known
    exact minimum for large square orders."""

    __slots__ = _fields = ("q", "tau2_bound", "ht_lower", "exact_m3q")

    def __init__(self, q: int, tau2_bound: TaggedValue, ht_lower: TaggedValue,
                 exact_m3q: int | None):
        _set(self, "q", q)
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
    return N3Specials(q=q, tau2_bound=tau2, ht_lower=ht, exact_m3q=exact)


class BoundsReport(Record):
    """All brackets for one (n, q), ready for JSON or CSV emission."""

    _TAGGED = (
        "adaptive_lower",
        "adaptive_upper",
        "nonadaptive_lower_katona",
        "nonadaptive_lower_asymptotic",
        "nonadaptive_upper_explicit",
        "nonadaptive_upper_random",
    )
    __slots__ = _fields = ("n", "q") + _TAGGED + ("n3_specials",)

    def __init__(self, n: int, q: int, adaptive_lower: TaggedValue,
                 adaptive_upper: TaggedValue, nonadaptive_lower_katona: TaggedValue,
                 nonadaptive_lower_asymptotic: TaggedValue,
                 nonadaptive_upper_explicit: TaggedValue,
                 nonadaptive_upper_random: TaggedValue, n3_specials: N3Specials | None):
        _set(self, "n", n)
        _set(self, "q", q)
        _set(self, "adaptive_lower", adaptive_lower)
        _set(self, "adaptive_upper", adaptive_upper)
        _set(self, "nonadaptive_lower_katona", nonadaptive_lower_katona)
        _set(self, "nonadaptive_lower_asymptotic", nonadaptive_lower_asymptotic)
        _set(self, "nonadaptive_upper_explicit", nonadaptive_upper_explicit)
        _set(self, "nonadaptive_upper_random", nonadaptive_upper_random)
        _set(self, "n3_specials", n3_specials)

    def rows(self) -> list[tuple]:
        """CSV rows in the documented column order BOUNDS_CSV_COLUMNS."""
        out = []
        for name in self._TAGGED:
            tv: TaggedValue = getattr(self, name)
            out.append((self.n, self.q, name, tv.tag, tv.value, tv.exact))
        sp = self.n3_specials
        if sp is not None:
            out.append(
                (self.n, self.q, "n3_tau2_bound", sp.tau2_bound.tag,
                 sp.tau2_bound.value, sp.tau2_bound.exact)
            )
            out.append(
                (self.n, self.q, "n3_ht_lower", sp.ht_lower.tag,
                 sp.ht_lower.value, sp.ht_lower.exact)
            )
            if sp.exact_m3q is not None:
                from fractions import Fraction

                out.append(
                    (self.n, self.q, "n3_exact_m3q", "exact-square",
                     float(sp.exact_m3q), Fraction(sp.exact_m3q))
                )
        return out

    def to_dict(self) -> dict:
        def tv_dict(tv: TaggedValue) -> dict:
            d = {"value": tv.value, "tag": tv.tag}
            if tv.exact is not None:
                d["exact"] = str(tv.exact)
            return d

        out = {"n": self.n, "q": self.q}
        for name in self._TAGGED:
            out[name] = tv_dict(getattr(self, name))
        if self.n3_specials is not None:
            sp = self.n3_specials
            out["n3_specials"] = {
                "tau2_bound": tv_dict(sp.tau2_bound),
                "ht_lower": tv_dict(sp.ht_lower),
                "exact_m3q": sp.exact_m3q,
            }
        return out


BOUNDS_CSV_COLUMNS = ("n", "q", "name", "tag", "value", "exact")


def write_bounds_csv(stream, reports) -> None:
    """The header, then every row of each report; `exact` is a rational
    string, or empty when the bound has no exact value."""
    import csv

    w = csv.writer(stream)
    w.writerow(BOUNDS_CSV_COLUMNS)
    for rep in reports:
        for n, q, name, tag, value, exact in rep.rows():
            w.writerow([n, q, name, tag, value, "" if exact is None else str(exact)])


def bounds_report(n: int, q: int) -> BoundsReport:
    adaptive_low, adaptive_up = adaptive_bounds(n, q)
    non = nonadaptive_bounds(n, q)
    kat = non.katona
    if q == 2:
        low_tv = _exact(n, "info-theoretic")
    else:
        low_tv = TaggedValue(adaptive_low, "info-theoretic")
    return BoundsReport(
        n=n,
        q=q,
        adaptive_lower=low_tv,
        adaptive_upper=_exact(adaptive_up, "pencil-descent"),
        nonadaptive_lower_katona=TaggedValue(kat.value, "katona"),
        nonadaptive_lower_asymptotic=TaggedValue(kat.simplified, "katona-asymptotic"),
        nonadaptive_upper_explicit=_exact(
            non.upper_explicit, "coordinate-ratio-hyperplanes"
        ),
        nonadaptive_upper_random=_exact(non.upper_random, "random-pencils"),
        n3_specials=n3_specials(q) if n == 3 else None,
    )
