"""cyclotomic: exact construction, classical identities, coefficient facts.

Oracles: the defining product prod_{d|n} Phi_d(x) = x^n - 1 checked with
an independent schoolbook polynomial multiply, integer-point evaluation
of the Mobius product identity, trial-division totients, and the Mobius
product two ways on trial-division divisors: per-coefficient loops, and
about sqrt(phi(n)) list-slice passes, fast enough to give every kernel's
height.  Neither packs coefficients into an int, as the package does.
"""

import random
from fractions import Fraction
from itertools import accumulate
from operator import add, sub

import pytest

from conftest import naive_factor, naive_mobius, naive_totient
from pzcheck import IntPolynomial, height
from pzcheck import cyclotomic as cyclotomic_module
from pzcheck.arith import FactoredInteger
from pzcheck.cli import cmd_check
from pzcheck.cyclotomic import cyclotomic


def _horner(poly, x):
    """poly evaluated at the integer x, exactly, by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _loop_cyclotomic(n):
    # prod_{d|n} (1 - x^d)^{mu(n/d)} modulo x^(phi(n) + 2), one coefficient
    # at a time, with divisors and mu by trial division
    top = naive_totient(n) + 1
    coeffs = [1] + [0] * top
    for d in range(1, n + 1):
        mu = naive_mobius(n // d) if n % d == 0 else 0
        if mu == 1:
            for i in range(top, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        elif mu == -1:
            for i in range(d, top + 1):
                coeffs[i] += coeffs[i - d]
    if n == 1:
        coeffs = [-c for c in coeffs]
    assert coeffs[-1] == 0
    return tuple(coeffs[:-1])


def _divisors(n):
    out = [1]
    for p, e in naive_factor(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return out


def _slice_cyclotomic(n):
    # the same truncated product by list-slice passes: times 1 - x^d
    # subtracts the list shifted by d in one pass, and over 1 - x^d is a
    # running sum along each residue class mod d when d^2 <= phi(n) + 1,
    # else a block-by-block add of d coefficients
    top = naive_totient(n) + 1
    coeffs = [1] + [0] * top
    for d in _divisors(n):
        mu = naive_mobius(n // d)
        if mu == 1:
            coeffs[d:] = map(sub, coeffs[d:], coeffs)
        elif mu == -1 and d * d <= top:
            for r in range(d):
                coeffs[r::d] = accumulate(coeffs[r::d])
        elif mu == -1:
            for i in range(d, top + 1, d):
                coeffs[i:i + d] = map(add, coeffs[i:i + d], coeffs[i - d:i])
    if n == 1:
        coeffs = [-c for c in coeffs]
    assert coeffs[-1] == 0
    return tuple(coeffs[:-1])


def _odd_kernel(n):
    out = 1
    for p, _ in naive_factor(n):
        if p != 2:
            out *= p
    return out


_SAMPLE_TO_1E4 = random.Random(23).sample(range(2001, 10**4 + 1), 40)
_WIDE_KERNELS = [5005, 6545, 7293, 7315, 7735, 8151, 8645, 8855, 9867]


# -- IntPolynomial container --------------------------------------------


def test_polynomial_normalization():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([0, 0]).degree == -1


def test_polynomial_holds_only_ints():
    for coefficient in (0.5, Fraction(1, 3), 2.0):
        with pytest.raises(TypeError):
            IntPolynomial([coefficient])
    p = IntPolynomial([True, 0, 1])
    assert p.coeffs == (1, 0, 1) and all(type(c) is int for c in p.coeffs)


def test_polynomial_coefficient_access():
    p = IntPolynomial([3, 0, -1])
    assert p.coefficient(0) == 3
    assert p.coefficient(2) == -1
    assert p.coefficient(5) == 0
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_polynomial_equality_and_hash():
    p = IntPolynomial([1, 0, -1, 1])  # 1 - x^2 + x^3
    assert p == IntPolynomial((1, 0, -1, 1, 0))
    assert hash(p) == hash(IntPolynomial([1, 0, -1, 1]))
    assert repr(p) == "IntPolynomial([1, 0, -1, 1])"
    assert p != p.coeffs  # another type: __eq__ returns NotImplemented


# -- small closed forms --------------------------------------------------


def test_first_cyclotomics_explicitly():
    assert cyclotomic(1) == IntPolynomial([-1, 1])
    assert cyclotomic(2) == IntPolynomial([1, 1])
    assert cyclotomic(3) == IntPolynomial([1, 1, 1])
    assert cyclotomic(4) == IntPolynomial([1, 0, 1])
    assert cyclotomic(6) == IntPolynomial([1, -1, 1])
    assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])


def test_prime_index_is_all_ones():
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic(p).coeffs == (1,) * p


def test_phi_12_by_integer_point_identity():
    # (x^12 - 1)(x^2 - 1) = Phi_12(x) (x^6 - 1)(x^4 - 1) for all x;
    # checking at integer points with exact arithmetic
    phi12 = cyclotomic(12)
    for x in (2, 3, 5, -2, 10):
        lhs = (x**12 - 1) * (x**2 - 1)
        rhs = _horner(phi12, x) * (x**6 - 1) * (x**4 - 1)
        assert lhs == rhs


# -- defining product, degrees, classical symmetries ---------------------


def test_product_over_divisors_reconstructs_xn_minus_1():
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, list(cyclotomic(d).coeffs))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, f"divisor product broke at n={n}"


def test_degree_is_the_totient():
    for n in range(1, 1001):
        assert cyclotomic(n).degree == naive_totient(n)


def test_odd_to_even_reflection():
    # Phi_2n(x) = Phi_n(-x) for odd n > 1
    for n in range(3, 100, 2):
        phi_n = cyclotomic(n)
        reflected = [
            (-1) ** k * phi_n.coefficient(k) for k in range(phi_n.degree + 1)
        ]
        assert cyclotomic(2 * n) == IntPolynomial(reflected)


def test_prime_power_compression():
    # Phi_{p^k}(x) = Phi_p(x^{p^{k-1}})
    for p, k in ((2, 4), (3, 3), (5, 2)):
        small = cyclotomic(p)
        step = p ** (k - 1)
        inflated = [0] * (small.degree * step + 1)
        for i in range(small.degree + 1):
            inflated[i * step] = small.coefficient(i)
        assert cyclotomic(p**k) == IntPolynomial(inflated)


# -- coefficient heights --------------------------------------------------


def test_heights_are_one_through_104():
    for n in range(1, 105):
        assert height(n) == 1


def test_height_two_first_appears_at_105():
    phi = cyclotomic(105)
    assert phi.degree == 48
    assert height(105) == 2
    assert phi.coefficient(7) == -2
    assert phi.coefficient(41) == -2
    others = [
        k
        for k in range(49)
        if abs(phi.coefficient(k)) == 2 and k not in (7, 41)
    ]
    assert others == []


def test_height_classification_to_200():
    # height(n) == 1 exactly when the odd part of n has at most two
    # distinct prime factors
    for n in range(1, 201):
        m = n
        while m % 2 == 0:
            m //= 2
        odd_part_omega = 0
        p = 3
        while p * p <= m:
            if m % p == 0:
                odd_part_omega += 1
                while m % p == 0:
                    m //= p
            p += 2
        if m > 1:
            odd_part_omega += 1
        if odd_part_omega <= 2:
            assert height(n) == 1, n
        else:
            assert height(n) >= 2, n


def test_height_matches_the_full_polynomial():
    # height reads Phi of the odd squarefree kernel; Phi_n itself must agree
    for n in list(range(1, 1501)) + _SAMPLE_TO_1E4:
        assert height(n) == max(abs(c) for c in cyclotomic.__wrapped__(n).coeffs), n


def test_height_domain_errors():
    for n in (0, 10**4 + 1):
        with pytest.raises(ValueError, match=r"^cyclotomic index must be in \[1, 10000\]"):
            height(n)


def test_migotti_scan_builds_each_odd_squarefree_kernel_once():
    cyclotomic.cache_clear()
    cyclotomic_module._kernel_height.cache_clear()
    cmd_check("migotti_remark", None, {"max_n": 2000})
    kernels = {_odd_kernel(n) for n in range(1, 2001) if len(naive_factor(_odd_kernel(n))) <= 2}
    # one packed height per kernel, plus 105 for the coefficient check,
    # and Phi_105 the only polynomial built
    assert cyclotomic_module._kernel_height.cache_info().misses == len(kernels | {105})
    assert cyclotomic.cache_info().misses <= 1


def test_random_larger_indices_satisfy_invariants():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(200, 2000)
        phi = cyclotomic(n)
        assert phi.degree == naive_totient(n)
        assert phi.coefficient(phi.degree) == 1
        # constant term of Phi_n is 1 for every n > 1
        assert phi.coefficient(0) == 1


def test_integer_point_identity_above_2000():
    # Phi_n(2) prod_{mu(n/d) = -1} (2^d - 1) = prod_{mu(n/d) = +1} (2^d - 1),
    # exact, with divisors and mu by trial division
    rng = random.Random(11)
    for n in rng.sample(range(2001, 10**4 + 1), 60):
        num = den = 1
        for d in range(1, n + 1):
            if n % d == 0:
                mu = naive_mobius(n // d)
                if mu == 1:
                    num *= 2**d - 1
                elif mu == -1:
                    den *= 2**d - 1
        assert _horner(cyclotomic(n), 2) * den == num, n


def test_packed_product_matches_the_per_coefficient_loops():
    for n in list(range(1, 2001)) + _SAMPLE_TO_1E4 + _WIDE_KERNELS:
        assert cyclotomic.__wrapped__(n).coeffs == _loop_cyclotomic(n), n


def _refuses_each_dropped_prime(monkeypatch, build, n):
    # a factorization missing any one prime builds a wrong product,
    # which the post-conditions must refuse rather than return
    real = cyclotomic_module.factorize
    for dropped in range(len(real(n, cyclotomic_module._table()).factors)):
        def short(m, table, dropped=dropped):
            factors = list(real(m, table).factors)
            del factors[dropped]
            return FactoredInteger(n=m, factors=tuple(factors))
        monkeypatch.setattr(cyclotomic_module, "factorize", short)
        with pytest.raises(ArithmeticError):
            build(n)


@pytest.mark.parametrize("n", (12, 105, 2310))
def test_dropping_a_prime_breaks_a_post_condition(monkeypatch, n):
    _refuses_each_dropped_prime(monkeypatch, cyclotomic.__wrapped__, n)


@pytest.mark.parametrize("k", (15, 105, 1155, 5005))
def test_dropping_a_prime_breaks_a_packed_post_condition(monkeypatch, k):
    _refuses_each_dropped_prime(monkeypatch, cyclotomic_module._kernel_height.__wrapped__, k)


def _kernel_primes(k):
    return [p for p, _ in naive_factor(k)]


def test_packed_heights_match_the_slice_path_within_a_proved_bound():
    # every odd squarefree kernel <= 10^4: the height is the one of the
    # test-side slice product, within the proved bound, and that bound
    # passes a signed byte at exactly nine four-prime kernels
    height_of = cyclotomic_module._kernel_height.__wrapped__
    kernels = [k for k in range(1, 10**4 + 1, 2) if all(e == 1 for _, e in naive_factor(k))]
    assert len(kernels) == 4056
    wide = []
    for k in kernels:
        want = max(map(abs, _slice_cyclotomic(k)))
        assert height_of(k) == want, k
        bound = cyclotomic_module._height_bound(_kernel_primes(k))
        assert want <= bound, k
        if bound > 127:
            wide.append(k)
    assert wide == _WIDE_KERNELS


def test_digit_width_follows_the_proved_bound(monkeypatch):
    # Bloom's bound passes 127 at 5 * 7 * 11 * 13 and 3 * 11 * 13 * 17,
    # not at 3 * 5 * 7 * 11 or 3 * 7 * 11 * 13 (bound 120); a height at
    # either width reads the packed digits and builds no Phi
    sizes, built = [], []
    packed, real = cyclotomic_module._packed_digits, cyclotomic_module.cyclotomic.__wrapped__
    monkeypatch.setattr(cyclotomic_module, "_packed_digits",
                        lambda n, primes, slots, size: sizes.append((n, size))
                        or packed(n, primes, slots, size))
    monkeypatch.setattr(cyclotomic_module, "cyclotomic", lambda n: built.append(n) or real(n))
    heights = {k: cyclotomic_module._kernel_height.__wrapped__(k) for k in (1155, 3003, 5005, 7293)}
    assert sizes == [(1155, 1), (3003, 1), (5005, 2), (7293, 2)]
    assert built == []
    assert heights == {k: max(map(abs, _slice_cyclotomic(k))) for k in heights}
    sizes.clear()
    for n in (105, 5005):
        assert real(n).coeffs == _slice_cyclotomic(n), n
    assert sizes == [(105, 1), (5005, 2)]
    with pytest.raises(ValueError, match="5 primes"):
        cyclotomic_module._height_bound([3, 5, 7, 11, 13])


def test_a_digit_past_the_proved_bound_is_refused(monkeypatch):
    # Phi_105's two coefficients -2 do not fit a bound of 1, at either readout
    monkeypatch.setattr(cyclotomic_module, "_height_bound", lambda primes: 1)
    for build in (cyclotomic.__wrapped__, cyclotomic_module._kernel_height.__wrapped__):
        with pytest.raises(ArithmeticError, match="past its proved bound 1"):
            build(105)


def test_domain_errors():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        cyclotomic(10**4 + 1)
