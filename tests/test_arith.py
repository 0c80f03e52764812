"""arith: sieve, factorization, Mobius, the omega and squarefreeness pass;
and the Bernoulli oracle that the zeta tests check the Euler-Maclaurin
coefficients against."""

import random
from fractions import Fraction

import pytest

from conftest import naive_factor, naive_mobius, naive_primes, naive_totient, oracle_bernoulli
from pzcheck import factorize, mobius, primes_upto, sieve, zeta
from pzcheck.arith import omega_upto


def test_sieve_first_primes():
    assert list(sieve(10).primes) == [2, 3, 5, 7]


def test_sieve_smallest_valid_limit():
    table = sieve(2)
    assert list(table.primes) == [2]
    assert table.smallest_factor[2] == 2


def test_sieve_100_against_trial_division():
    table = sieve(100)
    assert len(table.primes) == 25
    assert list(table.primes) == naive_primes(100)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve(1)
    with pytest.raises(ValueError):
        primes_upto(0)


def test_sieve_takes_its_limit_as_an_index():
    # a float limit is refused by operator.index, as series sizes are,
    # not deep inside the bytearray it would size
    for build in (sieve, primes_upto):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            build(2.5)


def test_smallest_factor_table(table_1e4):
    spf = table_1e4.smallest_factor
    assert spf[0] == 0 and spf[1] == 0
    # invariants: spf[n] divides n; spf[n] == n exactly at primes
    for n in range(2, 10**4 + 1):
        assert n % spf[n] == 0
    primes = set(table_1e4.primes)
    for n in range(2, 10**4 + 1):
        assert (spf[n] == n) == (n in primes)


def test_factorize_one_is_empty(table_1e4):
    f = factorize(1, table_1e4)
    assert f.factors == ()
    assert f.totient == 1


def test_factorize_30(table_1e4):
    assert factorize(30, table_1e4).factors == ((2, 1), (3, 1), (5, 1))


def test_factorize_12(table_1e4):
    f = factorize(12, table_1e4)
    assert f.factors == ((2, 2), (3, 1))


def test_factorize_out_of_range(table_1e4):
    with pytest.raises(ValueError):
        factorize(0, table_1e4)
    with pytest.raises(ValueError):
        factorize(10**4 + 1, table_1e4)


def test_factorize_reconstructs_everything_to_1e5(table_1e5):
    for n in range(1, 10**5 + 1):
        prod = 1
        for p, e in factorize(n, table_1e5).factors:
            prod *= p**e
        assert prod == n


def test_totient_against_trial_division(table_1e4):
    for n in range(1, 2001):
        assert factorize(n, table_1e4).totient == naive_totient(n)


def test_mobius_30(table_1e4):
    assert mobius(factorize(30, table_1e4)) == -1


def test_mobius_edge_values(table_1e4):
    assert mobius(factorize(1, table_1e4)) == 1
    assert mobius(factorize(12, table_1e4)) == 0


def test_mobius_against_trial_division(table_1e4):
    for n in range(1, 10**4 + 1):
        assert mobius(factorize(n, table_1e4)) == naive_mobius(n)


@pytest.mark.parametrize("fixture", ["table_1e4", "table_1e5"])
def test_omega_upto_against_trial_division(fixture, request):
    # n = 10^4 at the table's own limit and inside a larger table
    omega, squarefree = omega_upto(10**4, request.getfixturevalue(fixture))
    assert len(omega) == len(squarefree) == 10**4 + 1
    assert (omega[0], squarefree[0]) == (0, 0)
    for m in range(1, 10**4 + 1):
        factors = naive_factor(m)
        assert omega[m] == len(factors), m
        assert squarefree[m] == all(e == 1 for _, e in factors), m


def test_omega_upto_small_n_and_refusal(table_200):
    # below 4 no prime square marks anything; entry 0 is 0 at every n
    assert omega_upto(0, table_200) == ([0], bytearray([0]))
    assert omega_upto(3, table_200) == ([0, 0, 1, 1], bytearray([0, 1, 1, 1]))
    assert omega_upto(4, table_200) == ([0, 0, 1, 1, 1], bytearray([0, 1, 1, 1, 0]))
    for n in (201, -1):
        with pytest.raises(ValueError, match=f"n={n} outside the table's range"):
            omega_upto(n, table_200)


def test_prime_zeta_mobius_against_trial_division():
    # prime_zeta's mu(k) for k <= 64, read off omega_upto; entry 0 is 0
    assert zeta._mobius_small() == (0, *(naive_mobius(k) for k in range(1, 65)))


def test_mobius_fundamental_property(table_1e4):
    # sum of mu over divisors picks out n = 1; accumulate by multiples
    # so no divisor enumeration is needed
    limit = 10**4
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        mu = mobius(factorize(d, table_1e4))
        if mu:
            for m in range(d, limit + 1, d):
                acc[m] += mu
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, limit + 1))


def test_bernoulli_base_case():
    assert oracle_bernoulli(0) == 1


def test_bernoulli_2_by_hand():
    # B_1 = 1 - 1/2 and B_2 = 1 - 1/3 - 2 * B_1 / 2 by the recurrence
    assert oracle_bernoulli(1) == Fraction(1, 2)
    assert oracle_bernoulli(2) == Fraction(1, 6)


def test_bernoulli_12_against_independent_recurrence():
    assert oracle_bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_recurrence_even_range():
    import mpmath  # test-only oracle

    for m in range(0, 33, 2):
        assert oracle_bernoulli(m) == Fraction(*mpmath.bernfrac(m)), m


def test_bernoulli_von_staudt_clausen():
    # denominator of B_m is the product of primes p with (p-1) | m
    for m in range(2, 31, 2):
        denom = oracle_bernoulli(m).denominator
        for p in naive_primes(m + 1):
            if m % (p - 1) == 0:
                assert denom % p == 0
                denom //= p
        assert denom == 1


def test_random_factorizations_multiply_back(table_1e5):
    rng = random.Random(20260814)
    for _ in range(500):
        n = rng.randint(1, 10**5)
        f = factorize(n, table_1e5)
        prod = 1
        for p, e in f.factors:
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)
