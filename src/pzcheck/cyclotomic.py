"""Exact cyclotomic polynomials via the Mobius product formula.

Phi_n(x) = prod_{d | n} (x^d - 1)^{mu(n/d)}: multiply out the mu = +1
factors, then divide out the mu = -1 factors with exact synthetic
division.  Both steps exploit the x^d - 1 shape (shift-and-subtract),
so nothing here is a general polynomial multiply.  Coefficients stay
arbitrary-precision integers throughout; heights grow without bound in
general and no small-coefficient assumption is made.
"""

from __future__ import annotations

from functools import lru_cache

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


def _mul_xd_minus_1(coeffs: list[int], d: int) -> list[int]:
    # multiply by x^d - 1: shift up by d, subtract in place
    out = [0] * (len(coeffs) + d)
    for i, v in enumerate(coeffs):
        out[i + d] += v
        out[i] -= v
    return out


def _divexact_xd_minus_1(coeffs: list[int], d: int) -> list[int]:
    # exact synthetic division by x^d - 1, top down; the low d entries
    # are the remainder and must vanish
    work = list(coeffs)
    quotient = [0] * (len(work) - d)
    for i in range(len(work) - 1, d - 1, -1):
        v = work[i]
        if v:
            quotient[i - d] = v
            work[i - d] += v
    if any(work[:d]):
        raise ArithmeticError(
            f"nonzero remainder dividing by x^{d} - 1; cyclotomic product is broken"
        )
    return quotient


@lru_cache(maxsize=1)
def _table():
    return sieve(_MAX_N)


@lru_cache(maxsize=512)
def cyclotomic(n: int) -> IntPolynomial:
    """Phi_n as an exact IntPolynomial, for 1 <= n <= 10^4.

    mu(n/d) is nonzero only at d = n/e with e a squarefree product of
    n's primes, where it is (-1)^omega(e), so one factorization of n
    gives every factor; they are applied in ascending d.  Post-conditions
    checked on every construction: remainder-free divisions, degree
    phi(n), and leading coefficient 1.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"cyclotomic index must be in [1, {_MAX_N}], got {n}")
    factored = factorize(n, _table())
    signed = [(1, 1)]  # (squarefree e | n, mu(e))
    for p, _ in factored.factors:
        signed += [(e * p, -mu) for e, mu in signed]
    coeffs = [1]
    deflations = []
    for d, mu in sorted((n // e, mu) for e, mu in signed):
        if mu == 1:
            coeffs = _mul_xd_minus_1(coeffs, d)
        else:
            deflations.append(d)
    for d in deflations:
        coeffs = _divexact_xd_minus_1(coeffs, d)
    poly = IntPolynomial(coeffs)
    totient = factored.totient
    if poly.degree != totient or poly.coeffs[-1] != 1:
        raise ArithmeticError(
            f"Phi_{n} failed invariants: degree {poly.degree} (want {totient}), "
            f"leading {poly.coeffs[-1] if poly.coeffs else None}"
        )
    return poly


def height(n: int) -> int:
    """Largest absolute coefficient of Phi_n."""
    return max(map(abs, cyclotomic(n).coeffs))
