"""Exact arithmetic in finite fields GF(q) for prime-power q.

Field elements are plain ints in ``[0, q)``.  For a prime field the int is
the residue itself.  For an extension field GF(p^e) the int encodes the
polynomial representative in base-p digits, digit i being the coefficient
of x^i, so 0 and 1 are always the additive and multiplicative identities.

The modulus of an extension field is the lexicographically smallest monic
irreducible polynomial of degree e over GF(p), coefficients compared low
degree first, so two constructions of GF(q) always agree element by element.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

# Largest field order constructed by default; keeps the log/antilog and
# addition tables small.
DEFAULT_MAX_ORDER = 1024


class NotAPrimePower(ValueError):
    """Field order is not p^e for a prime p."""


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e and p prime, or raise NotAPrimePower."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise NotAPrimePower(f"field order must be an integer >= 2, got {q!r}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotAPrimePower(f"{q} is divisible by {p} but is not a power of it")
    return p, e


def is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
    except NotAPrimePower:
        return False
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p): coefficient tuples, low degree first, no trailing
# zeros (the zero polynomial is the empty tuple)
# ---------------------------------------------------------------------------


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic polynomial mod."""
    a = list(a)
    while len(a) >= len(mod):
        c = a[-1]
        if c:
            shift = len(a) - len(mod)
            for i, mc in enumerate(mod):
                a[shift + i] = (a[shift + i] - c * mc) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic polynomial by all monic divisors of degree
    at most deg(poly) // 2."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tail + (1,)
            if not _poly_mod(poly, div, p):
                return False
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class GF:
    """One finite field GF(q).  Immutable once constructed.

    Elements are ints in [0, q).  Multiplication and inversion in extension
    fields go through log/antilog tables built on a fixed generator of the
    multiplicative group; prime fields use modular arithmetic directly.
    """

    def __init__(self, q: int, max_order: int = DEFAULT_MAX_ORDER):
        if q > max_order:
            raise ValueError(f"field order {q} above the configured cap {max_order}")
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = self._smallest_irreducible(p, e)
        if e == 1:
            self.generator = self._prime_field_generator(p)
            self.exp: tuple[int, ...] | None = None
            self.log: tuple[int, ...] | None = None
            self._add_table: list[int] | None = None
        else:
            self.generator = self._extension_generator()
            exp = [1]
            for _ in range(q - 2):
                exp.append(self._raw_mul(exp[-1], self.generator))
            if len(set(exp)) != q - 1:
                raise AssertionError("generator order check failed")
            self.exp = tuple(exp)
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            self.log = tuple(log)
            if p == 2:
                self._add_table = None
            else:
                self._add_table = [
                    self._digitwise_add(a, b) for a in range(q) for b in range(q)
                ]

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
        for tail in itertools.product(range(p), repeat=e):
            cand = tail + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # unreachable

    @staticmethod
    def _prime_field_generator(p: int) -> int:
        if p == 2:
            return 1
        factors = _prime_factors(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // r, p) != 1 for r in factors):
                return g
        raise AssertionError("no generator found")  # unreachable

    def _to_poly(self, a: int) -> tuple[int, ...]:
        digits = []
        while a:
            a, r = divmod(a, self.p)
            digits.append(r)
        return tuple(digits)

    def _from_poly(self, coeffs: tuple[int, ...]) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self._to_poly(a), self._to_poly(b), self.p)
        return self._from_poly(_poly_mod(prod, self.modulus, self.p))

    def _raw_pow(self, a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self._raw_mul(out, a)
            a = self._raw_mul(a, a)
            k >>= 1
        return out

    def _extension_generator(self) -> int:
        factors = _prime_factors(self.q - 1)
        for g in range(2, self.q):
            if all(self._raw_pow(g, (self.q - 1) // r) != 1 for r in factors):
                return g
        raise AssertionError("no generator found")  # unreachable

    def _digitwise_add(self, a: int, b: int) -> int:
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.mul(a, self.p - 1)  # p - 1 encodes the scalar -1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Shared, cached GF(q) instance."""
    return GF(q)
