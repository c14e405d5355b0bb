import math
from fractions import Fraction

import pytest

from qsearch import bounds
from qsearch.bounds import (
    BOUNDS_CSV_COLUMNS,
    adaptive_bounds,
    bounds_dict,
    bounds_report,
    katona_lower,
    n3_specials,
    nonadaptive_upper,
)
from qsearch.projspace import TooLarge, gaussian_binomial
from qsearch.separating import brute_force_minimum, explicit_construction

TOL = 1e-9


def test_adaptive_bounds_frozen():
    lo, hi = adaptive_bounds(3, 3)
    assert hi == 5
    assert lo == pytest.approx(3.700439718141092, abs=TOL)
    lo, hi = adaptive_bounds(4, 5)
    assert hi == 13
    assert lo == pytest.approx(7.285402218862249, abs=TOL)


@pytest.mark.parametrize("n", range(2, 9))
def test_adaptive_bracket_closes_for_q2(n):
    lo, hi = adaptive_bounds(n, 2)
    assert (lo, hi) == (float(n), n)


def test_adaptive_lower_below_upper():
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7, 9):
            lo, hi = adaptive_bounds(n, q)
            assert lo <= hi


def test_katona_frozen():
    assert katona_lower(3, 2).value == pytest.approx(2.4578911240175927, abs=TOL)
    assert katona_lower(3, 3).value == pytest.approx(3.8262530899788088, abs=TOL)
    assert katona_lower(3, 4).value == pytest.approx(5.2511500548093295, abs=TOL)
    assert katona_lower(3, 3).simplified == pytest.approx(2.569904046188368, abs=TOL)


def _katona_by_two_counts(n, q):
    """The bound as first written: the hyperplane count from its own
    Gaussian binomial, and the asymptotic form's ratio from q^n - 1 and
    q^(n-1) - 1."""
    M = gaussian_binomial(n, 1, q)
    m = gaussian_binomial(n - 1, 1, q)
    ratio = Fraction(M, m)
    value = float(ratio) * math.log2(M) / math.log2(math.e * float(ratio))
    simplified = (
        (n - 1) * q * math.log2(q) / (2 + math.log2((q**n - 1) / (q ** (n - 1) - 1)))
    )
    return value, simplified


@pytest.mark.parametrize("n", [*range(2, 41), 100, 1000])
def test_katona_matches_the_two_count_form_exactly(n):
    for q in (2, 3, 4, 5, 7, 8, 9, 13, 1024, 1000000000000000003):
        k = katona_lower(n, q)
        assert (k.value, k.simplified) == _katona_by_two_counts(n, q), (n, q)


def test_katona_monotone_in_n():
    for q in (3, 4, 5, 7, 9):
        vals = [katona_lower(n, q).value for n in range(2, 7)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


def test_katona_simplified_is_weaker():
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7, 9):
            k = katona_lower(n, q)
            assert k.simplified <= k.value + TOL


def test_katona_below_known_systems():
    for n in range(2, 6):
        for q in (2, 3, 4, 5):
            assert katona_lower(n, q).value <= len(explicit_construction(n, q)) + TOL
    assert katona_lower(3, 2).value <= len(brute_force_minimum(3, 2)) + TOL


def test_nonadaptive_bounds():
    assert nonadaptive_upper(3, 3) == (6, 18)
    assert nonadaptive_upper(4, 2) == (4, 16)
    assert nonadaptive_upper(5, 7) == (55, 70)
    assert katona_lower(5, 7).value <= min(nonadaptive_upper(5, 7))


def test_n3_specials_small_orders():
    sp = n3_specials(3)
    assert sp.tau2_bound.exact == 7
    assert sp.tau2_bound.tag == "double-blocking-counting"
    assert sp.ht_lower.exact == Fraction(15, 4)
    assert sp.ht_lower.tag == "semi-resolving"
    assert sp.exact_m3q is None

    sp = n3_specials(4)
    assert sp.tau2_bound.exact == 9
    assert sp.tau2_bound.tag == "double-blocking-counting"

    assert n3_specials(2) is None


def test_n3_specials_prime_orders():
    sp = n3_specials(5)
    assert sp.tau2_bound.exact == 15
    assert sp.tau2_bound.tag == "double-blocking-prime"
    sp = n3_specials(7)
    assert sp.tau2_bound.exact == 20
    assert sp.tau2_bound.tag == "double-blocking-prime"
    # for large primes the square-root form overtakes 5(q+1)/2
    sp = n3_specials(13)
    assert sp.tau2_bound.tag == "double-blocking-sqrt"
    assert sp.tau2_bound.value == pytest.approx(35.211102550927976, abs=TOL)
    assert sp.tau2_bound.exact is None


def test_n3_specials_square_orders():
    sp = n3_specials(9)
    assert sp.tau2_bound.exact == 26
    assert sp.tau2_bound.tag == "double-blocking-sqrt"
    assert sp.ht_lower.exact == Fraction(69, 4)
    assert sp.exact_m3q is None  # exact value only known from 121 up

    sp = n3_specials(25)
    assert sp.tau2_bound.exact == 62
    assert sp.exact_m3q is None

    sp = n3_specials(121)
    assert sp.tau2_bound.exact == 266
    assert sp.exact_m3q == 264
    assert sp.ht_lower.exact == 264  # tau2 - 2 beats (9q-12)/4 here
    assert sp.ht_lower.tag == "double-blocking-sqrt-minus-2"


def test_n3_specials_odd_power_orders():
    sp = n3_specials(27)
    # the square-root form still wins at 27
    assert sp.tau2_bound.tag == "double-blocking-sqrt"
    assert sp.tau2_bound.value == pytest.approx(66.39230484541326, abs=TOL)
    sp = n3_specials(2187)  # 3^7: the odd-power form finally overtakes
    assert sp.tau2_bound.tag == "double-blocking-odd-power"
    want = 2 * 2188 + 2 ** (-1 / 3) * 2187 ** (2 / 3)
    assert sp.tau2_bound.value == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("q", (9, 16, 25, 49, 121, 169, 289))
def test_square_identity(q):
    # 2q + 2*sqrt(q) == 2(q + sqrt(q) + 1) - 2
    r = math.isqrt(q)
    assert r * r == q
    sp = n3_specials(q)
    if q >= 121:
        assert sp.exact_m3q == 2 * q + 2 * r == sp.tau2_bound.exact - 2


def test_ht_lower_never_exceeds_tau2_minus_2():
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 121):
        sp = n3_specials(q)
        assert sp.ht_lower.value <= sp.tau2_bound.value - 2 + TOL


def test_bounds_report_structure():
    d = bounds_dict(bounds_report(3, 3))
    assert d["n"] == 3 and d["q"] == 3
    assert d["adaptive_lower"]["tag"] == "info-theoretic"
    assert d["adaptive_upper"] == {"value": 5.0, "tag": "pencil-descent", "exact": "5"}
    assert d["nonadaptive_lower_katona"]["tag"] == "katona"
    assert d["nonadaptive_lower_asymptotic"]["tag"] == "katona-asymptotic"
    assert d["nonadaptive_upper_explicit"]["exact"] == "6"
    assert d["nonadaptive_upper_random"]["exact"] == "18"
    assert d["n3_specials"]["ht_lower"]["exact"] == "15/4"
    assert d["n3_specials"]["exact_m3q"] is None


def test_bounds_report_skips_specials_off_plane():
    rows = bounds_report(4, 3)
    assert len(rows) == 6
    assert not any(name.startswith("n3_") for _, _, name, *_ in rows)
    assert "n3_specials" not in bounds_dict(rows)


def test_bounds_report_q2_lower_is_exact():
    assert bounds_report(5, 2)[0] == (5, 2, "adaptive_lower", "info-theoretic", 5.0, 5)


def test_bounds_csv_rows():
    rows = bounds_report(3, 3)
    names = [r[2] for r in rows]
    assert names == [
        "adaptive_lower",
        "adaptive_upper",
        "nonadaptive_lower_katona",
        "nonadaptive_lower_asymptotic",
        "nonadaptive_upper_explicit",
        "nonadaptive_upper_random",
        "n3_tau2_bound",
        "n3_ht_lower",
    ]
    assert all(len(r) == len(BOUNDS_CSV_COLUMNS) for r in rows)
    rows121 = bounds_report(3, 121)
    assert rows121[-1] == (3, 121, "n3_exact_m3q", "exact-square", 264.0, 264)
    sp = bounds_dict(rows121)["n3_specials"]
    assert sp["exact_m3q"] == 264 and type(sp["exact_m3q"]) is int
    assert sp["tau2_bound"] == {"value": 266.0, "tag": "double-blocking-sqrt", "exact": "266"}


def test_bounds_report_refuses_an_oversized_n_before_any_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("a count was built")

    monkeypatch.setattr(bounds, "gaussian_binomial", no_count)
    with pytest.raises(TooLarge, match="n \\* bits\\(q\\) = 60000000 exceeds the cap of 10000000"):
        bounds_report(30_000_000, 3)
    monkeypatch.undo()
    monkeypatch.setattr(bounds, "BOUNDS_BIT_CAP", 20)
    with pytest.raises(TooLarge, match="= 22 exceeds"):
        bounds_report(11, 3)  # 3 has two bits
    assert len(bounds_report(10, 3)) == 6  # at the cap a report is made
