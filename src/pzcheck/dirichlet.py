"""Truncated Dirichlet series with exact coefficients.

A series here is the coefficient vector (a_1, ..., a_N) of a formal sum
sum_n a_n n^{-s}, carried to an explicit truncation N.  Products of the
underlying sums become Dirichlet convolution of coefficients,

    (a * b)_n = sum_{d | n} a_d * b_{n/d},

which is what convolve() computes.  Integral coefficients are ints and
only non-integral ones Fractions, so equality of coefficients is exact,
and a mismatch between two series at some index is a theorem about the
first N coefficients, not a floating-point observation.

Truncation discipline: an operation on inputs valid up to N produces an
output valid up to its own (stated) truncation, never beyond; indices
past the truncation simply do not exist for the object.
"""

from __future__ import annotations

from .arith import PrimeTable


def _exact(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class DirichletSeries:
    """Coefficients a_1..a_N of a truncated Dirichlet series."""

    __slots__ = ("truncation", "_a")

    def __init__(self, coefficients: Sequence[int | Fraction]):
        """Build from the list [a_1, ..., a_N]; N = len(list) >= 1."""
        if len(coefficients) < 1:
            raise ValueError("a Dirichlet series needs at least coefficient a_1")
        self.truncation = len(coefficients)
        # index 0 is a permanent zero so that self._a[n] is a_n
        self._a = [0] + [_exact(c) for c in coefficients]

    @classmethod
    def _adopt(cls, padded: list) -> DirichletSeries:
        # takes over [0, a_1, ..., a_N], built by an operation from exact values
        series = cls.__new__(cls)
        series.truncation, series._a = len(padded) - 1, padded
        return series

    def __getitem__(self, n: int) -> int | Fraction:
        if not 1 <= n <= self.truncation:
            raise IndexError(f"coefficient index {n} outside [1, {self.truncation}]")
        return self._a[n]

    def coefficients(self) -> list[int | Fraction]:
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


def unit_series(truncation: int) -> DirichletSeries:
    """The convolution identity: a_1 = 1, all other a_n = 0."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    return DirichletSeries._adopt([0, 1] + [0] * (truncation - 1))


def zeta_series(truncation: int) -> DirichletSeries:
    """The series of zeta(s): a_n = 1 for every n."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    return DirichletSeries._adopt([0] + [1] * truncation)


def prime_zeta_series(truncation: int, table: PrimeTable) -> DirichletSeries:
    """The series of P(s): a_p = 1 at primes p, zero elsewhere."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if truncation > table.limit:
        raise ValueError(f"truncation {truncation} exceeds prime table limit {table.limit}")
    padded = [0] * (truncation + 1)
    for p in table.primes:
        if p > truncation:
            break
        padded[p] = 1
    return DirichletSeries._adopt(padded)


def convolve(a: DirichletSeries, b: DirichletSeries) -> DirichletSeries:
    """Dirichlet convolution, truncated to min of the input truncations.

    Loops over d and multiples of d, so the cost is O(N log N)
    multiplies rather than a divisor search per index.
    """
    n = min(a.truncation, b.truncation)
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        ad = a._a[d]
        if not ad:
            continue
        for m, bk in zip(range(d, n + 1, d), b._a[1 : n // d + 1]):
            if bk:
                out[m] += ad * bk
    return DirichletSeries._adopt(out)


def invert(a: DirichletSeries) -> DirichletSeries:
    """Convolution inverse b with a * b = unit, truncated like a.

    Needs a_1 != 0.  Uses the forward recurrence: b_m starts at unit_m;
    once b_d is final, subtract a_{m/d} * b_d from every multiple m of d,
    and b_m is final after its division by a_1, in increasing m.  1/a_1
    is a_1 itself when a_1 = +-1, so integer input stays integer.
    """
    a1 = a._a[1]
    if a1 == 0:
        raise ValueError("series with a_1 = 0 has no convolution inverse")
    n = a.truncation
    if a1 in (1, -1):
        inv_a1 = a1
    else:
        from fractions import Fraction

        inv_a1 = Fraction(1, a1)
    b = [0, 1] + [0] * (n - 1)
    for d in range(1, n + 1):
        bd = b[d] = b[d] * inv_a1
        if not bd:
            continue
        for m, ak in zip(range(2 * d, n + 1, d), a._a[2 : n // d + 1]):
            if ak:
                b[m] -= ak * bd
    return DirichletSeries._adopt(b)


def dilate(a: DirichletSeries, k: int, truncation: int) -> DirichletSeries:
    """Substitute s -> k*s: coefficient a_n moves to index n**k.

    The result is valid up to min(truncation, a.truncation ** k), since
    indices beyond a.truncation ** k would need source coefficients past
    the input's truncation.
    """
    if k < 1:
        raise ValueError(f"dilation order must be >= 1, got {k}")
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    n = min(truncation, a.truncation**k)
    out = [0] * (n + 1)
    m = 1
    while m**k <= n:
        out[m**k] = a._a[m]
        m += 1
    return DirichletSeries._adopt(out)


def linear_combine(terms: Iterable[tuple[int | Fraction, DirichletSeries]]) -> DirichletSeries:
    """Sum of c_i * series_i, truncated to the minimum truncation."""
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    n = min(s.truncation for _, s in terms)
    out = [0] * (n + 1)
    for c, s in terms:
        c = _exact(c)
        if c:
            out = [o + c * x if x else o for o, x in zip(out, s._a)]
    return DirichletSeries._adopt(out)


def first_mismatch(
    a: DirichletSeries, b: DirichletSeries
) -> tuple[int, int | Fraction, int | Fraction] | None:
    """Smallest n with a_n != b_n, as (n, a_n, b_n); None if all agree.

    Comparing series of different truncations is refused rather than
    silently clipped: agreement over different ranges is a different
    statement.
    """
    if a.truncation != b.truncation:
        raise ValueError(f"truncation mismatch: {a.truncation} vs {b.truncation}")
    return next(((n, x, y) for n, (x, y) in enumerate(zip(a._a, b._a)) if x != y), None)


def claim_lhs_series(truncation: int) -> DirichletSeries:
    """Series of 2/zeta(s): twice the convolution inverse of zeta.

    Coefficientwise this is 2*mu(n), which the tests check against an
    independent Mobius computation.
    """
    return linear_combine([(2, invert(zeta_series(truncation)))])


def claim_rhs_series(truncation: int, table: PrimeTable) -> DirichletSeries:
    """Series of 2 - 2 P(s) + P(s)^2 - P(2s), all terms exact."""
    p = prime_zeta_series(truncation, table)
    return linear_combine(
        [
            (2, unit_series(truncation)),
            (-2, p),
            (1, convolve(p, p)),
            (-1, dilate(p, 2, truncation)),
        ]
    )
