"""Exact integer and rational primitives.

Prime sieve with least-prime-factor table, certified factorization,
the Mobius function, and Bernoulli numbers as exact rationals.  All
arithmetic in this module is exact; nothing here touches floats.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import comb, isqrt

# Largest index for which bernoulli() will answer.  The recurrence is
# exact at any size; the cap just keeps accidental huge requests from
# burning time, and 64 covers every consumer in this package.
BERNOULLI_MAX = 64


class PrimeTable(namedtuple("PrimeTable", "limit primes smallest_factor")):
    """Primes and least prime factors up to a fixed limit.

    primes is the tuple of primes <= limit; smallest_factor[n] is the
    least prime factor of n for 2 <= n <= limit, and entries 0 and 1 are
    0 (no prime factor).
    """

    __slots__ = ()

    def is_prime(self, n: int) -> bool:
        if not 2 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [2, {self.limit}]")
        return self.smallest_factor[n] == n


class FactoredInteger(namedtuple("FactoredInteger", "n factors")):
    """An integer together with its full prime factorization.

    factors is a tuple of (p, e) pairs sorted by prime, exponents >= 1,
    and the product of p**e over all pairs reconstructs n exactly
    (checked at build time).
    """

    __slots__ = ()

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def totient(self) -> int:
        """Euler's phi, read off the factorization."""
        t = 1
        for p, e in self.factors:
            t *= (p - 1) * p ** (e - 1)
        return t


def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit by a plain boolean Eratosthenes pass.

    Cheaper than sieve() when the least-prime-factor table is not
    needed (e.g. direct prime sums with limits in the 10^7 range).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), flags))


def sieve(limit: int) -> PrimeTable:
    """Build a PrimeTable for 2..limit.

    Boolean Eratosthenes pass for the primes, then one slice assignment
    per prime in descending order to fill the least-prime-factor table:
    the smallest prime is written last, so it wins on shared indices.
    """
    primes = primes_upto(limit)

    spf = [0] * (limit + 1)
    for p in reversed(primes):
        spf[p::p] = [p] * (limit // p)
    return PrimeTable(limit=limit, primes=primes, smallest_factor=tuple(spf))


def factorize(n: int, table: PrimeTable) -> FactoredInteger:
    """Factor n by repeated least-prime-factor lookup.

    Requires 1 <= n <= table.limit.  The factorization is certified:
    we recompute the product before returning and refuse to hand back
    anything that does not multiply out to n.
    """
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside factorizable range [1, {table.limit}]")
    spf = table.smallest_factor
    factors = []
    m = n
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    check = 1
    for p, e in factors:
        check *= p**e
    if check != n:  # pragma: no cover - guards table corruption
        raise ArithmeticError(f"factorization of {n} failed verification")
    return FactoredInteger(n=n, factors=tuple(factors))


def mobius(f: FactoredInteger) -> int:
    """Mobius mu: 0 unless squarefree, else (-1)**omega."""
    if not f.is_squarefree:
        return 0
    return -1 if f.omega % 2 else 1


_bernoulli_cache: list[Fraction] = []


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention).

    Defined by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 with
    B_0 = 1; values are cached.  Odd m > 1 gives 0.  m must lie in
    [0, BERNOULLI_MAX].
    """
    if not 0 <= m <= BERNOULLI_MAX:
        raise ValueError(f"bernoulli index must be in [0, {BERNOULLI_MAX}], got {m}")
    if m > 1 and m % 2:
        raise ValueError(f"odd Bernoulli numbers beyond B_1 are zero; rejecting m={m}")
    from fractions import Fraction

    if not _bernoulli_cache:
        _bernoulli_cache.append(Fraction(1))
    while len(_bernoulli_cache) <= m:
        r = len(_bernoulli_cache)
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli_cache):
            acc += comb(r + 1, j) * bj
        _bernoulli_cache.append(-acc / (r + 1))
    return _bernoulli_cache[m]
