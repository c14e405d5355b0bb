import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsearch import gf
from qsearch.gf import (
    GF,
    PRIMALITY_BOUND,
    NotAPrimePower,
    _poly_mod,
    _poly_mul,
    factor_prime_power,
    field,
    is_prime_power,
)

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


def test_order_cap(monkeypatch):
    with pytest.raises(ValueError, match="field order 2048 above the configured cap 1024"):
        GF(2048)
    monkeypatch.setattr(gf, "DEFAULT_MAX_ORDER", 4096)
    GF(2048)  # raising the cap lifts the restriction


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
        # the zero polynomial is the empty tuple, and it absorbs
        assert _poly_mul((), cs, F.p) == _poly_mul(cs, (), F.p) == ()


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


def test_factor_prime_power_by_exact_roots():
    t0 = time.perf_counter()
    assert factor_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert factor_prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert factor_prime_power(10**18 + 3) == (10**18 + 3, 1)
    # 318665857834031151167461 is a strong pseudoprime to every prime base
    # up to 37 (OEIS A014233) and is caught only by base 41.
    for composite in (999_983 * 1_000_003, 561, 399_165_290_221 * 798_330_580_441):
        with pytest.raises(NotAPrimePower):
            factor_prime_power(composite)
    assert time.perf_counter() - t0 < 1


def test_primality_bound_is_named():
    assert factor_prime_power(2**100) == (2, 100)  # small root, any size
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)) as caught:
        factor_prime_power(PRIMALITY_BOUND)
    assert not isinstance(caught.value, NotAPrimePower)


@pytest.mark.parametrize("q,max_order", [(9, 1024), (729, 1024), (2048, 4096)])
def test_no_table_has_q_squared_entries(monkeypatch, q, max_order):
    monkeypatch.setattr(gf, "DEFAULT_MAX_ORDER", max_order)
    F = GF(q)
    assert max(len(t) for t in (F.exp, F.log, F.spread, F.fold)) < q * q
    assert len(F.fold) < 2**F.e * q


# ---------------------------------------------------------------------------
# differential oracle: the field as it was built before the shared tables,
# with modular arithmetic for prime fields, XOR for characteristic 2 and a
# q^2-entry digit-wise addition table for odd extensions
# ---------------------------------------------------------------------------


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


class BranchingGF:
    def __init__(self, q):
        self.q = q
        self.p, self.e = p, e = factor_prime_power(q)
        self.modulus = GF._smallest_irreducible(p, e)
        factors = _prime_factors(q - 1)
        if e == 1:
            self.generator = 1 if p == 2 else next(
                g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors)
            )
            return
        self.generator = next(
            g for g in range(2, q) if all(self._pow(g, (q - 1) // r) != 1 for r in factors)
        )
        self.exp = [1]
        for _ in range(q - 2):
            self.exp.append(self._raw_mul(self.exp[-1], self.generator))
        self.log = [0] * q
        for i, v in enumerate(self.exp):
            self.log[v] = i
        if p != 2:
            self._add_table = [self._digitwise_add(a, b) for a in range(q) for b in range(q)]

    def _digits(self, a):
        out = []
        while a:
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def _undigits(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _raw_mul(self, a, b):
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        return self._undigits(_poly_mod(prod, self.modulus, self.p))

    def _pow(self, a, k):
        out = 1
        while k:
            if k & 1:
                out = self._raw_mul(out, a)
            a = self._raw_mul(a, a)
            k >>= 1
        return out

    def _digitwise_add(self, a, b):
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add_table[a * self.q + b]

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.mul(a, self.p - 1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]


def _agree(F, O, pairs):
    for a, b in pairs:
        assert F.add(a, b) == O.add(a, b), ("add", a, b)
        assert F.sub(a, b) == O.sub(a, b), ("sub", a, b)
        assert F.mul(a, b) == O.mul(a, b), ("mul", a, b)
    for a in {a for a, _ in pairs}:
        assert F.neg(a) == O.neg(a), ("neg", a)
        if a:
            assert F.inv(a) == O.inv(a), ("inv", a)


ORDERS_TO_256 = [q for q in range(2, 257) if is_prime_power(q)]


@pytest.mark.parametrize("q", ORDERS_TO_256)
def test_tables_match_branching_field_exhaustively(q):
    F, O = GF(q), BranchingGF(q)
    assert F.generator == O.generator
    _agree(F, O, [(a, b) for a in range(q) for b in range(q)])


@pytest.mark.parametrize("q", (729, 1021, 1024))
def test_tables_match_branching_field_sampled(q):
    F, O = field(q), BranchingGF(q)
    assert F.generator == O.generator
    rng = random.Random(q)
    _agree(F, O, [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)])


class PolynomialGF(GF):
    """GF building its generator cycle by polynomial multiplication in prime
    fields too, as every field did before prime fields took a * b % p."""

    def _raw_mul(self, a, b):
        prod = _poly_mul(self._to_poly(a), self._to_poly(b), self.p)
        return self._from_poly(_poly_mod(prod, self.modulus, self.p))


@pytest.mark.parametrize("q", (2, 3, 5, 7, 31, 127, 257, 509, 997, 1021))
def test_prime_field_tables_match_the_polynomial_path(q):
    F, O = GF(q), PolynomialGF(q)
    assert (F.generator, F.exp, F.log) == (O.generator, O.exp, O.log)


@pytest.mark.parametrize("q", ALL_Q + (25, 27, 32, 243))
def test_axpy_is_mul_then_add(q):
    F = field(q)
    rng = random.Random(q)
    x = [rng.randrange(q) for _ in range(4 * q)]
    y = [rng.randrange(q) for _ in range(4 * q)]
    for c in range(q):
        assert F.axpy(c, x, y) == [F.add(F.mul(c, a), b) for a, b in zip(x, y)]
