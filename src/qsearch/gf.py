"""Exact arithmetic in finite fields GF(q) for prime-power q.

Field elements are plain ints in ``[0, q)``.  For a prime field the int is
the residue itself.  For an extension field GF(p^e) the int encodes the
polynomial representative in base-p digits, digit i being the coefficient
of x^i, so 0 and 1 are always the additive and multiplicative identities.

The modulus of an extension field is the lexicographically smallest monic
irreducible polynomial of degree e over GF(p), coefficients compared low
degree first, so two constructions of GF(q) always agree element by element.

Prime and extension fields share one arithmetic path: multiplication goes
through log/antilog tables of a fixed generator, and addition through a
carry-free respelling of the base-p digits in base 2p-1 (see `GF`).  No
table has q^2 entries; the largest, ``fold``, has (2p-1)^e = (2 - 1/p)^e q.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Largest field order constructed by default; keeps the tables small.
DEFAULT_MAX_ORDER = 1024


class NotAPrimePower(ValueError):
    """Field order is not p^e for a prime p."""


# Miller-Rabin over the 13 prime bases 2 to 41 is exact below this (A014233).
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= m < PRIMALITY_BOUND."""
    if m in _BASES:
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _iroot(m: int, e: int) -> int:
    """floor(m ** (1/e)) by Newton's method from above."""
    r = 1 << -(-m.bit_length() // e)
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e and p prime, or raise NotAPrimePower.

    Only the root for the largest e with an exact e-th root can be prime,
    and it is tested by Miller-Rabin; a root at or above PRIMALITY_BOUND
    raises a plain ValueError, since that test is no longer exact there."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise NotAPrimePower(f"field order must be an integer >= 2, got {q!r}")
    e = next(e for e in range(q.bit_length(), 0, -1) if _iroot(q, e) ** e == q)
    p = _iroot(q, e)
    if p >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    if not _is_prime(p):
        raise NotAPrimePower(f"{q} is not a prime power")
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


class GF:
    """One finite field GF(q).  Immutable once constructed.

    Elements are ints in [0, q).  Every field, prime or not, is built from
    the same four tables, of 4q - 3, q, q and (2p-1)^e entries:

    - ``exp`` lists the powers of a fixed generator twice over, then a
      block of zeros; ``log[0]`` points into that block, so ``mul`` is one
      lookup even when a factor is 0.
    - ``spread`` respells an element's base-p digits in base 2p-1, where
      adding two respelled elements as plain ints never carries (a digit
      sum is at most 2p-2); ``fold`` reduces every digit of such a sum
      mod p, so ``add(a, b) = fold[spread[a] + spread[b]]``.

    ``fold`` grows as (2 - 1/p)^e q: 3^16, about 43 million entries, at
    GF(2^16), so a ``DEFAULT_MAX_ORDER`` above about 2^14 is impractical in
    char 2.
    """

    def __init__(self, q: int):
        if q > DEFAULT_MAX_ORDER:
            raise ValueError(f"field order {q} above the configured cap {DEFAULT_MAX_ORDER}")
        p, e = factor_prime_power(q)
        self.q, self.p, self.e = q, p, e
        self.modulus = self._smallest_irreducible(p, e)
        self.generator, cycle = self._generator()
        self.exp = tuple(cycle * 2 + [0] * (2 * q - 1))
        log = [2 * (q - 1)] * q  # log[0] + log[b] always lands on a zero
        for i, v in enumerate(cycle):
            log[v] = i
        self.log = tuple(log)
        spread, fold = [0], [0]
        for i in range(e):
            spread = [d * (2 * p - 1) ** i + s for d in range(p) for s in spread]
            fold = [d % p * p**i + f for d in range(2 * p - 1) for f in fold]
        self.spread = tuple(spread)
        self.fold = tuple(fold)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
        monic = (tail + (1,) for tail in itertools.product(range(p), repeat=e))
        return next(c for c in monic if _is_irreducible(c, p))

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
        if self.e == 1:
            return a * b % self.p
        prod = _poly_mul(self._to_poly(a), self._to_poly(b), self.p)
        return self._from_poly(_poly_mod(prod, self.modulus, self.p))

    def _generator(self) -> tuple[int, list[int]]:
        """The smallest element g of multiplicative order q - 1 (1 in GF(2)),
        and its powers g^0, ..., g^(q-2)."""
        for g in range(1, self.q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._raw_mul(x, g)
            if len(powers) == self.q - 1:
                return g, powers
        raise AssertionError("no generator found")  # unreachable

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.fold[self.spread[a] + self.spread[b]]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # p - 1 encodes the scalar -1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self.exp[self.q - 1 - self.log[a]]

    def axpy(self, c: int, x, y) -> list[int]:
        """The row c*x + y, entry by entry."""
        exp, log, spread, fold = self.exp, self.log, self.spread, self.fold
        lc = log[c]
        return [fold[spread[exp[lc + log[a]]] + spread[b]] for a, b in zip(x, y)]

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Shared, cached GF(q) instance."""
    return GF(q)
