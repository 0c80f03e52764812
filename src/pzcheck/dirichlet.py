"""Truncated Dirichlet series with integer coefficients.

A series here is the coefficient vector (a_1, ..., a_N) of a formal sum
sum_n a_n n^{-s}, carried to an explicit truncation N.  Products of the
underlying sums become Dirichlet convolution of coefficients,

    (a * b)_n = sum_{d | n} a_d * b_{n/d},

which is what convolve() computes.  Series take zeta.EvalResult's operators
(+, -, c - a, int * and square), so rhs_form() spells the claim for both.
Every coefficient is an int (a float or a rational raises TypeError), and
invert() needs a_1 = +1 or -1, so a mismatch at some index is a theorem
about the first N coefficients, not a floating-point observation.

Truncation discipline: an operation on inputs valid up to N produces an
output valid up to its own (stated) truncation, never beyond; indices
past the truncation simply do not exist for the object.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from operator import index

from .arith import PrimeTable


class DirichletSeries:
    """Coefficients a_1..a_N of a truncated Dirichlet series."""

    __slots__ = ("truncation", "_a")

    def __init__(self, coefficients: list[int]):
        """Build from the list [a_1, ..., a_N]; N = len(list) >= 1."""
        if len(coefficients) < 1:
            raise ValueError("a Dirichlet series needs at least coefficient a_1")
        self.truncation = len(coefficients)
        # index 0 is a permanent zero so that self._a[n] is a_n
        self._a = [0] + [index(c) for c in coefficients]

    @classmethod
    def _adopt(cls, padded: list) -> DirichletSeries:
        # takes over [0, a_1, ..., a_N], built by an operation from ints
        series = cls.__new__(cls)
        series.truncation, series._a = len(padded) - 1, padded
        return series

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.truncation:
            raise IndexError(f"coefficient index {n} outside [1, {self.truncation}]")
        return self._a[n]

    def coefficients(self) -> list[int]:
        """The list [a_1, ..., a_N]."""
        return self._a[1:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return self.truncation == other.truncation and self._a == other._a

    def __hash__(self) -> int:
        return hash((self.truncation, tuple(self._a)))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._a[1 : min(self.truncation, 8) + 1])
        tail = ", ..." if self.truncation > 8 else ""
        return f"DirichletSeries(N={self.truncation}; {head}{tail})"

    def __add__(self, other: DirichletSeries) -> DirichletSeries:  # truncated to the shorter
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return DirichletSeries._adopt([x + y for x, y in zip(self._a, other._a)])

    def __sub__(self, other: DirichletSeries) -> DirichletSeries:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return DirichletSeries._adopt([x - y for x, y in zip(self._a, other._a)])

    def __rsub__(self, c: int) -> DirichletSeries:  # c - a: c times the unit series, minus a
        out = [-x for x in self._a]
        out[1] += index(c)
        return DirichletSeries._adopt(out)

    def __mul__(self, c: int) -> DirichletSeries:  # c * a, with c on either side
        c = index(c)
        return DirichletSeries._adopt([c * x for x in self._a])

    __rmul__ = __mul__

    def square(self) -> DirichletSeries:
        return convolve(self, self)


def _checked(truncation: int) -> int:
    if index(truncation) < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    return truncation


def unit_series(truncation: int) -> DirichletSeries:
    """The convolution identity: a_1 = 1, all other a_n = 0."""
    return DirichletSeries._adopt([0, 1] + [0] * (_checked(truncation) - 1))


def zeta_series(truncation: int) -> DirichletSeries:
    """The series of zeta(s): a_n = 1 for every n."""
    return DirichletSeries._adopt([0] + [1] * _checked(truncation))


def prime_zeta_series(truncation: int, table: PrimeTable) -> DirichletSeries:
    """The series of P(s): a_p = 1 at primes p, zero elsewhere."""
    if _checked(truncation) > table.limit:
        raise ValueError(f"truncation {truncation} exceeds prime table limit {table.limit}")
    padded = [0] * (truncation + 1)
    for p in table.primes:
        if p > truncation:
            break
        padded[p] = 1
    return DirichletSeries._adopt(padded)


def convolve(a: DirichletSeries, b: DirichletSeries) -> DirichletSeries:
    """Dirichlet convolution, truncated to min of the input truncations.

    Walks the nonzero a_d and, for each, the nonzero b_k with k <= N // d,
    so the cost is one multiply per pair of nonzero terms with d * k <= N:
    O(N log N) when both are dense, rather than a divisor search per index.
    """
    n = min(a.truncation, b.truncation)
    out = [0] * (n + 1)
    support = list(compress(range(n + 1), b._a[: n + 1]))
    for d in compress(range(n + 1), a._a[: n + 1]):
        ad, last = a._a[d], n // d
        for k in support:
            if k > last:
                break
            out[d * k] += ad * b._a[k]
    return DirichletSeries._adopt(out)


def invert(a: DirichletSeries) -> DirichletSeries:
    """Convolution inverse b with a * b = unit, truncated like a.

    Over the integers the inverse exists exactly when a_1 is a unit, +1
    or -1, so any other a_1 is refused; 1/a_1 is then a_1 itself.  Uses
    the forward recurrence: b_m starts at unit_m; once b_d is final and
    nonzero, subtract a_k * b_d from b_{d*k} for every nonzero a_k with
    k >= 2, and b_m is final after its multiplication by a_1, in
    increasing m; the cost counts nonzero terms as convolve's does.
    """
    a1 = a._a[1]
    if a1 not in (1, -1):
        raise ValueError("a series has an integer convolution inverse only if a_1 is +1 or -1")
    n = a.truncation
    support = list(compress(range(2, n + 1), a._a[2:]))
    b = [0, 1] + [0] * (n - 1)
    for d in range(1, n + 1):
        bd = b[d] = b[d] * a1
        if bd:
            last = n // d
            for k in support:
                if k > last:
                    break
                b[d * k] -= a._a[k] * bd
    return DirichletSeries._adopt(b)


def dilate(a: DirichletSeries) -> DirichletSeries:
    """Substitute s -> 2s: coefficient a_m moves to index m*m.

    The result keeps a's truncation N, which is always valid: a square
    m*m <= N has m <= N, so every source coefficient it needs exists.
    """
    out = [0] * (a.truncation + 1)
    for m in range(1, isqrt(a.truncation) + 1):
        out[m * m] = a._a[m]
    return DirichletSeries._adopt(out)


def claim_lhs_series(truncation: int) -> DirichletSeries:
    """Series of 2/zeta(s): twice the convolution inverse of zeta.

    Coefficientwise this is 2*mu(n), which the tests check against an
    independent Mobius computation.
    """
    return 2 * invert(zeta_series(truncation))


def rhs_form(p, p2):
    """2 - 2 P(s) + P(s)^2 - P(2s) from p = P(s) and p2 = P(2s), each a
    series (exact) or a zeta.EvalResult (bounded): the claim's one right side."""
    return 2 - 2 * p + p.square() - p2


def claim_rhs_series(truncation: int, table: PrimeTable) -> DirichletSeries:
    """Series of 2 - 2 P(s) + P(s)^2 - P(2s), all terms exact."""
    p = prime_zeta_series(truncation, table)
    return rhs_form(p, dilate(p))
