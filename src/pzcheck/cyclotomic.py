"""Exact cyclotomic polynomials as one truncated power series.

For n > 1, Phi_n(x) = prod_{d | n} (1 - x^d)^{mu(n/d)} has degree
phi(n), so the product is carried modulo x^(phi(n) + 2), one slot past
the degree (Arnold & Monagan, Math. Comp. 80 (2011)).  Each factor is
applied by list-slice passes, not a loop over coefficients: multiplying
by 1 - x^d subtracts the list shifted by d in one pass, and dividing by
it is a running sum along each residue class mod d when d^2 <= phi(n) + 1
and a block-by-block add of d coefficients otherwise, so about
sqrt(phi(n)) slice operations either way.  Phi_1 = x - 1 is the one
sign flip.  A wrong product shows in the four checked post-conditions:
a nonzero slot past phi(n), a leading coefficient not 1, a Phi_n
(n > 1) that is not palindromic, or a wrong Phi_n(1).  Coefficients are
arbitrary-precision integers; no height bound is assumed.

height(n) builds no Phi_n of full degree: Phi_n(x) = Phi_r(x^(n/r))
with r = rad(n), and Phi_2m(x) = Phi_m(-x) for odd m > 1, so Phi_n has
the coefficients of Phi_k up to sign and spacing, where k, the product
of n's odd primes, is n's odd squarefree kernel.  Heights are memoised
per kernel as ints; cyclotomic() keeps only the last polynomial it built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import add, sub

from .arith import factorize, sieve

_MAX_N = 10**4


class IntPolynomial:
    """Dense integer polynomial; coeffs[i] multiplies x^i.

    Trailing zeros are stripped at construction; the zero polynomial is
    the empty tuple with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        """Coefficient of x^k (0 beyond the degree)."""
        if k < 0:
            raise ValueError(f"negative power {k}")
        return self.coeffs[k] if k <= self.degree else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


@lru_cache(maxsize=1)
def _table():
    return sieve(_MAX_N)


# One entry: heights are memoised per kernel; only cli._migotti reads a Phi twice.
@lru_cache(maxsize=1)
def cyclotomic(n: int) -> IntPolynomial:
    """Phi_n as an exact IntPolynomial, for 1 <= n <= 10^4.

    mu(n/d) is nonzero only at d = n/e with e a squarefree product of
    n's primes, where it is (-1)^omega(e), so one factorization of n
    gives every factor.  Four post-conditions are checked on every
    construction: the slot past phi(n) is 0, so the series stops; the
    leading coefficient is 1; Phi_n is palindromic for n > 1; and
    Phi_n(1) is 0 at n = 1, p at n = p^k and 1 otherwise.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"cyclotomic index must be in [1, {_MAX_N}], got {n}")
    factored = factorize(n, _table())
    signed = [(1, 1)]  # (squarefree e | n, mu(e))
    for p, _ in factored.factors:
        signed += [(e * p, -mu) for e, mu in signed]
    top = factored.totient + 1
    coeffs = [1] + [0] * top  # Phi_n modulo x^(top + 1)
    for e, mu in signed:
        d = n // e
        if mu == 1:  # times 1 - x^d: c[i] -= c[i - d], all from the old list
            coeffs[d:] = map(sub, coeffs[d:], coeffs)
        elif d * d <= top:  # over 1 - x^d: a running sum along each class mod d
            for r in range(d):
                coeffs[r::d] = accumulate(coeffs[r::d])
        else:  # the same sums, adding each block of d to the updated one below
            for i in range(d, top + 1, d):
                coeffs[i:i + d] = map(add, coeffs[i:i + d], coeffs[i - d:i])
    if n == 1:  # x - 1 = -(1 - x)
        coeffs = [-c for c in coeffs]
    factors = factored.factors
    at_one = 0 if n == 1 else factors[0][0] if len(factors) == 1 else 1
    palindromic = n == 1 or coeffs[:-1] == coeffs[-2::-1]
    if coeffs[-2:] != [1, 0] or sum(coeffs) != at_one or not palindromic:
        raise ArithmeticError(
            f"Phi_{n} failed invariants: top coefficients {coeffs[-2:]} (want [1, 0]), "
            f"Phi_n(1) = {sum(coeffs)} (want {at_one}), palindromic {palindromic}"
        )
    return IntPolynomial(coeffs)


def height(n: int) -> int:
    """Largest absolute coefficient of Phi_n, for 1 <= n <= 10^4.

    Read off Phi_k for n's odd squarefree kernel k (see the module
    docstring), so every n with the same odd primes shares one
    construction.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"cyclotomic index must be in [1, {_MAX_N}], got {n}")
    return _kernel_height(prod(p for p, _ in factorize(n, _table()).factors if p != 2))


@lru_cache(maxsize=None)  # one int per odd squarefree k <= 10^4
def _kernel_height(k: int) -> int:
    return max(map(abs, cyclotomic(k).coeffs))
