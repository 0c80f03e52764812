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
(n > 1) that is not palindromic, or a wrong Phi_n(1).  cyclotomic()
assumes no height bound: its coefficients are arbitrary-precision ints.

height(n) builds no Phi_n of full degree: Phi_n(x) = Phi_r(x^(n/r))
with r = rad(n), and Phi_2m(x) = Phi_m(-x) for odd m > 1, so Phi_n has
the coefficients of Phi_k up to sign and spacing, where k, the product
of n's odd primes, is n's odd squarefree kernel.  Phi_k is not built as
a list either: the same truncated product is Kronecker-packed into one
int, with each coefficient a signed byte, and the same four
post-conditions are checked on the decoded bytes.  A proved height
bound (never Migotti's theorem, which the scan tests) shows that a byte
is wide enough; for the nine four-prime kernels <= 10^4 where it cannot,
the height is read off cyclotomic(k).  Heights are memoised per kernel
as ints; cyclotomic() keeps only the last polynomial it built.
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


# One entry: heights come from the packed product or, at nine kernels, from
# one build each, so only cli._migotti's Phi_105 cross-check reads one twice.
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
    primes = [p for p, _ in factored.factors]
    top = factored.totient + 1
    coeffs = [1] + [0] * top  # Phi_n modulo x^(top + 1)
    for d, mu in _mobius_factors(n, primes):
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
    _check(n, primes, coeffs[-2:], sum(coeffs), n == 1 or coeffs[:-1] == coeffs[-2::-1])
    return IntPolynomial(coeffs)


def _mobius_factors(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """(d, mu(n/d)) for every d | n with mu(n/d) != 0, given n's primes."""
    signed = [(1, 1)]  # (squarefree e | n, mu(e))
    for p in primes:
        signed += [(e * p, -mu) for e, mu in signed]
    return [(n // e, mu) for e, mu in signed]


def _check(n: int, primes: list[int], top: list[int], at_one: int, palindromic: bool) -> None:
    """Refuse a Phi_n whose top two slots, value at 1 or symmetry is wrong."""
    want = 0 if n == 1 else primes[0] if len(primes) == 1 else 1
    if top != [1, 0] or at_one != want or not palindromic:
        raise ArithmeticError(
            f"Phi_{n} failed invariants: top coefficients {top} (want [1, 0]), "
            f"Phi_n(1) = {at_one} (want {want}), palindromic {palindromic}"
        )


def height(n: int) -> int:
    """Largest absolute coefficient of Phi_n, for 1 <= n <= 10^4.

    Read off Phi_k for n's odd squarefree kernel k (see the module
    docstring), so every n with the same odd primes shares one
    construction.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"cyclotomic index must be in [1, {_MAX_N}], got {n}")
    return _kernel_height(prod(p for p, _ in factorize(n, _table()).factors if p != 2))


def _height_bound(primes: list[int]) -> int:
    """A proved bound on the height of Phi_k, k the product of primes (ascending).

    Phi_1 and Phi_p have coefficients in {-1, 0, 1}.  Modulo
    x^(phi(pq) + 2), which stops below x^pq, 1/((1 - x^p)(1 - x^q)) has
    0/1 coefficients and Phi_pq is that series times 1 - x, so |c| <= 2
    for one or two primes.  Bang (1895) gives p - 1 for three and Bloom
    (1968) p(p - 1)(pq - 1) for four.  No kernel <= 10^4 has five
    (3*5*7*11*13 = 15015).
    """
    if len(primes) <= 2:
        return 2
    if len(primes) == 3:
        return primes[0] - 1
    if len(primes) == 4:
        p, q = primes[:2]
        return p * (p - 1) * (p * q - 1)
    raise ValueError(f"no proved height bound for {len(primes)} primes")


@lru_cache(maxsize=None)  # one int per odd squarefree k <= 10^4
def _kernel_height(k: int) -> int:
    """Height of Phi_k for odd squarefree k, from one Kronecker-packed int.

    The truncated product is evaluated at x = 2^8 modulo 2^(8(phi(k) + 2)),
    a ring homomorphism from Z[x]/(x^(phi(k) + 2)), so no intermediate
    product needs a bound: only Phi_k's own coefficients must fit signed
    bytes, which _height_bound proves for every kernel <= 10^4 but nine
    four-prime ones from 5005 to 9867, read off cyclotomic(k) instead.
    Times 1 - x^d is one shifted subtraction; over 1 - x^d, the product
    of 1 + x^(2^j d), is one shifted addition per doubling.  Adding 128
    to every digit makes each byte c + 128, and the height and Phi_k(1)
    are read by counting the bytes at each distance from that offset.
    """
    primes = [p for p, _ in factorize(k, _table()).factors]
    bound = _height_bound(primes)
    if bound > 127:  # a byte cannot hold the proved bound: the slice reference
        return max(map(abs, cyclotomic(k).coeffs))
    slots = prod(p - 1 for p in primes) + 2  # Phi_k modulo x^slots
    width = 8 * slots
    mask = (1 << width) - 1
    packed = 1
    for d, mu in _mobius_factors(k, primes):
        shift = 8 * d
        if mu == 1:
            packed = (packed - (packed << shift)) & mask
        else:
            while shift < width:
                packed = (packed + (packed << shift)) & mask
                shift <<= 1
    if k == 1:  # x - 1 = -(1 - x)
        packed = -packed & mask
    zero = 128
    offset = int.from_bytes(bytes([zero]) * slots, "little")
    digits = ((packed + offset) & mask).to_bytes(slots, "little")
    left = slots - digits.count(zero)
    at_one = distance = 0
    while left and distance < bound:
        distance += 1
        up, down = digits.count(zero + distance), digits.count(zero - distance)
        left -= up + down
        at_one += distance * (up - down)
    if left:
        raise ArithmeticError(f"Phi_{k} has {left} coefficients past its proved bound {bound}")
    top = [digits[-2] - zero, digits[-1] - zero]
    _check(k, primes, top, at_one, k == 1 or digits[:-1] == digits[-2::-1])
    return distance
