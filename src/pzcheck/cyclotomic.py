"""Exact cyclotomic polynomials from one Kronecker-packed product.

For n > 1, Phi_n(x) = prod_{d | n} (1 - x^d)^{mu(n/d)} has degree
phi(n), so the product is carried modulo x^(phi(n) + 2), one slot past
the degree (Arnold & Monagan, Math. Comp. 80 (2011)).  _packed_digits
evaluates it at a power of the byte base in one int, so each factor is
a shift and an add, not a loop over coefficients: the divisions first,
by ascending d, then the multiplications, and no factor with
d >= phi(n) + 2, which is 1 there.  Phi_1 = x - 1 is the one sign flip.
One readout, _readout, checks its digits: a proved height bound (never
Migotti's theorem, which the scan tests) picks one signed byte per
coefficient when it is below 128 and two bytes otherwise, and the height
and Phi_n(1) are read by counting the digits at each distance from zero.
A wrong product shows as a digit past that bound or in the four checked
post-conditions: a nonzero slot past phi(n), a leading coefficient not
1, a Phi_n (n > 1) that is not palindromic, or a wrong Phi_n(1).
cyclotomic(n) decodes the checked digits.  height(n) builds no
polynomial: Phi_n(x) = Phi_r(x^(n/r)) with r = rad(n), and
Phi_2m(x) = Phi_m(-x) for odd m > 1, so Phi_n has the coefficients of
Phi_k up to sign and spacing, where k, the product of n's odd primes, is
n's odd squarefree kernel, and the readout of Phi_k gives the height.
Heights are memoised per kernel as ints; cyclotomic() keeps only the
last polynomial it built.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import index

from .arith import FactoredInteger, factorize, sieve

_MAX_N = 10**4


class IntPolynomial:
    """Dense integer polynomial; coeffs[i] multiplies x^i.

    Coefficients are ints (a float or a Fraction raises TypeError), with
    trailing zeros stripped; the zero polynomial is () with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [index(x) for x in coeffs]
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


# One entry: heights never build a Phi_n, so only cli._migotti's Phi_105
# cross-check reads one twice.
@lru_cache(maxsize=1)
def cyclotomic(n: int) -> IntPolynomial:
    """Phi_n as an exact IntPolynomial, for 1 <= n <= 10^4.

    Decoded from the digits _readout has checked against the proved
    bound of n's odd squarefree kernel (no Phi_n with n <= 10^4 has a
    coefficient past 680 < 2^15) and the four post-conditions: the slot
    past phi(n) is 0, so the series stops; the leading coefficient is 1;
    Phi_n is palindromic for n > 1; and Phi_n(1) is 0 at n = 1, p at
    n = p^k and 1 otherwise.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"cyclotomic index must be in [1, {_MAX_N}], got {n}")
    digits, zero, _ = _readout(factorize(n, _table()))
    return IntPolynomial([d - zero for d in digits])


def _packed_digits(n: int, primes: list[int], slots: int, size: int) -> bytes:
    """Phi_n modulo x^slots, slots = phi(n) + 2, as little-endian digits.

    The truncated product is evaluated at x = 2^(8 size) modulo
    2^(8 size slots), a ring homomorphism from Z[x]/(x^slots), so the
    factors commute and no intermediate product needs a bound: only
    Phi_n's own coefficients must fit a digit of size bytes.  Over
    1 - x^d, the product of 1 + x^(2^j d), is one shifted addition per
    doubling; these divisions (mu(n/d) = -1) run first, by ascending d,
    on an int grown from 1 before a subtraction's borrow fills every
    digit.  Times 1 - x^d is one shifted subtraction, and no d >= slots,
    where 1 - x^d is 1, is taken.  Digits are coefficients + 2^(8 size - 1).
    """
    signed = [(1, 1)]  # (squarefree e | n, mu(e)), so d = n / e
    for p in primes:
        signed += [(e * p, -mu) for e, mu in signed]
    width = 8 * size * slots
    mask = (1 << width) - 1
    packed = 1
    for mu, d in sorted((mu, n // e) for e, mu in signed if n // e < slots):
        shift = 8 * size * d
        if mu == 1:
            packed = (packed - (packed << shift)) & mask
        else:
            while shift < width:
                packed = (packed + (packed << shift)) & mask
                shift <<= 1
    if n == 1:  # x - 1 = -(1 - x)
        packed = -packed & mask
    offset = int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * slots, "little")
    return ((packed + offset) & mask).to_bytes(size * slots, "little")


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
    """Height of Phi_k for odd squarefree k, counted by _readout."""
    return _readout(factorize(k, _table()))[2]


def _readout(factored: FactoredInteger) -> tuple:
    """Phi_n's checked digits, their zero and its height, n = factored.n.

    The digits are one signed byte each when n's odd primes have a
    proved bound below 128 and two bytes otherwise, each c plus the zero
    for the coefficient c.  Counting the digits at each distance from the
    zero gives the height and Phi_n(1); a digit past the bound, or a
    broken post-condition, is refused.
    """
    n, primes, slots = factored.n, [p for p, _ in factored.factors], factored.totient + 2
    bound = _height_bound([p for p in primes if p != 2])
    size = 1 if bound < 128 else 2
    digits = _packed_digits(n, primes, slots, size)
    if size == 2:
        digits = [low + 256 * high for low, high in zip(digits[::2], digits[1::2])]
    zero = 1 << (8 * size - 1)
    left = len(digits) - digits.count(zero)
    at_one = distance = 0
    while left and distance < bound:
        distance += 1
        up, down = digits.count(zero + distance), digits.count(zero - distance)
        left -= up + down
        at_one += distance * (up - down)
    if left:
        raise ArithmeticError(f"Phi_{n} has {left} coefficients past its proved bound {bound}")
    top = [digits[-2] - zero, digits[-1] - zero]
    want = 0 if n == 1 else primes[0] if len(primes) == 1 else 1
    palindromic = n == 1 or digits[:-1] == digits[-2::-1]
    if top != [1, 0] or at_one != want or not palindromic:
        raise ArithmeticError(
            f"Phi_{n} failed invariants: top coefficients {top} (want [1, 0]), "
            f"Phi_n(1) = {at_one} (want {want}), palindromic {palindromic}"
        )
    return digits, zero, distance
