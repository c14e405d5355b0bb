import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsearch.gf import GF, NotAPrimePower, factor_prime_power, field, is_prime_power

ALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(1024) == (2, 10)


def test_factor_prime_power_stops_at_square_root():
    t0 = time.perf_counter()
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert factor_prime_power(3**30) == (3, 30)
    with pytest.raises(NotAPrimePower):
        factor_prime_power(999_983 * 1_000_003)
    # trial division up to q itself took minutes on the prime above
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 15, 100, -3])
def test_not_a_prime_power(bad):
    with pytest.raises(NotAPrimePower):
        factor_prime_power(bad)
    assert not is_prime_power(bad)


def test_order_cap():
    with pytest.raises(ValueError):
        GF(2048)
    GF(2048, max_order=4096)  # raising the cap lifts the restriction


def test_field_cache_shares_instances():
    assert field(5) is field(5)
    assert field(4) is not field(8)


# fixed moduli: lexicographically smallest monic irreducible, low degree first
def test_frozen_moduli():
    assert field(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field(8).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert field(9).modulus == (1, 0, 1)  # x^2 + 1
    assert field(16).modulus == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    assert field(7).modulus == (0, 1)  # prime field: just x


def test_frozen_arithmetic_gf4():
    F = field(4)
    assert F.mul(2, 2) == 3  # x * x = x + 1
    assert F.mul(2, 3) == 1  # x (x+1) = x^2 + x = 1
    assert F.inv(2) == 3
    assert F.add(2, 3) == 1
    assert F.neg(3) == 3


def test_frozen_arithmetic_gf9():
    F = field(9)
    assert F.mul(3, 3) == 2  # x * x = -1 = 2
    assert F.add(1, 2) == 0  # scalars add mod 3
    assert F.neg(3) == 6  # -x = 2x
    assert F.add(4, 8) == 0  # (1+x) + (2+2x)


def test_frozen_arithmetic_prime_fields():
    F5 = field(5)
    assert F5.mul(2, 4) == 3
    assert F5.inv(2) == 3
    assert F5.inv(4) == 4
    F7 = field(7)
    assert F7.inv(3) == 5
    assert F7.mul(6, F7.inv(2)) == 3
    assert F7.sub(2, 5) == 4


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = range(q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", ALL_Q)
def test_generator_spans_multiplicative_group(q):
    F = field(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = F.mul(x, F.generator)
    assert x == 1  # order divides q - 1
    assert seen == set(range(1, q))  # and is exactly q - 1


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        field(9).inv(0)


@pytest.mark.parametrize("q", (4, 8, 9, 16, 27))
def test_coeffs_round_trip(q):
    # an element's int is its polynomial's base-p digits, low degree first
    F = field(q)
    for a in range(q):
        cs = F._to_poly(a)
        assert len(cs) <= F.e
        assert all(0 <= c < F.p for c in cs)
        assert F._from_poly(cs) == a


@given(
    q=st.sampled_from(ALL_Q),
    a=st.integers(min_value=0, max_value=15),
    b=st.integers(min_value=0, max_value=15),
)
def test_frobenius_is_additive(q, a, b):
    # (a + b)^p == a^p + b^p in characteristic p
    F = field(q)
    a %= q
    b %= q

    def power(x, k):
        out = 1
        for _ in range(k):
            out = F.mul(out, x)
        return out

    assert power(F.add(a, b), F.p) == F.add(power(a, F.p), power(b, F.p))


@given(q=st.sampled_from(ALL_Q), a=st.integers(min_value=1, max_value=15))
def test_fermat_power(q, a):
    # a^(q-1) == 1 for nonzero a
    F = field(q)
    a = a % (q - 1) + 1 if q > 2 else 1
    out = 1
    for _ in range(q - 1):
        out = F.mul(out, a)
    assert out == 1
