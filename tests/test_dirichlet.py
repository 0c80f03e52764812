"""dirichlet: exact truncated Dirichlet series algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_convolve, naive_factor, naive_mobius
from pzcheck import (
    DirichletSeries,
    claim_lhs_series,
    claim_rhs_series,
    convolve,
    dilate,
    first_mismatch,
    invert,
    linear_combine,
    prime_zeta_series,
    unit_series,
    zeta_series,
)


def _random_series(rng, n, invertible=False):
    coeffs = [
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)
    ]
    if invertible:
        while coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return DirichletSeries(coeffs)


def test_zeta_series_is_all_ones():
    assert zeta_series(3).coefficients() == [1, 1, 1]
    assert zeta_series(1).coefficients() == [1]
    assert zeta_series(10).coefficients() == [1] * 10


def test_zeta_series_rejects_empty():
    with pytest.raises(ValueError):
        zeta_series(0)


def test_prime_zeta_series_marks_primes(table_200):
    s = prime_zeta_series(6, table_200)
    assert s.coefficients() == [0, 1, 1, 0, 1, 0]
    assert prime_zeta_series(1, table_200).coefficients() == [0]


def test_prime_zeta_series_pi_30(table_200):
    s = prime_zeta_series(30, table_200)
    assert sum(s.coefficients()) == 10  # pi(30) = 10


def test_prime_zeta_series_respects_table_limit(table_200):
    with pytest.raises(ValueError):
        prime_zeta_series(201, table_200)


def test_coefficient_indexing():
    s = zeta_series(5)
    assert s[1] == 1 and s[5] == 1
    with pytest.raises(IndexError):
        s[0]
    with pytest.raises(IndexError):
        s[6]


def test_dilate_prime_squares(table_200):
    d = dilate(prime_zeta_series(30, table_200), 2, 30)
    expected = {4, 9, 25}
    assert {n for n in range(1, 31) if d[n] != 0} == expected
    assert all(d[n] == 1 for n in expected)


def test_dilate_identity_k1(table_200):
    p = prime_zeta_series(20, table_200)
    assert dilate(p, 1, 20) == p
    # truncation shrinks to the requested N
    assert dilate(p, 1, 7).truncation == 7


def test_dilate_zeta_squares():
    d = dilate(zeta_series(10), 2, 10)
    assert {n for n in range(1, 11) if d[n] != 0} == {1, 4, 9}


def test_dilate_never_hits_non_kth_powers(table_200):
    rng = random.Random(1)
    for _ in range(20):
        s = _random_series(rng, 40)
        k = rng.randint(2, 4)
        d = dilate(s, k, 40)
        powers = {m**k for m in range(1, 41)}
        for n in range(1, 41):
            if n not in powers:
                assert d[n] == 0


def test_dilate_rejects_bad_order():
    with pytest.raises(ValueError):
        dilate(zeta_series(5), 0, 5)


def test_convolve_prime_squares_and_semiprimes(table_200):
    p = prime_zeta_series(10, table_200)
    pp = convolve(p, p)
    assert pp[4] == 1  # only 2*2
    assert pp[6] == 2  # 2*3 and 3*2
    assert pp[9] == 1
    assert pp[2] == 0


def test_convolve_against_schoolbook():
    rng = random.Random(2)
    for _ in range(10):
        a = _random_series(rng, 60)
        b = _random_series(rng, 60)
        got = convolve(a, b).coefficients()
        want = naive_convolve(a.coefficients(), b.coefficients())
        assert got == want


def test_convolve_commutative_associative():
    rng = random.Random(3)
    for _ in range(8):
        a = _random_series(rng, 50)
        b = _random_series(rng, 50)
        c = _random_series(rng, 50)
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_convolve_zeta_with_mobius_gives_unit(table_200):
    mu = DirichletSeries([Fraction(naive_mobius(n)) for n in range(1, 101)])
    assert convolve(zeta_series(100), mu) == unit_series(100)


def test_invert_zeta_is_mobius_to_100():
    inv = invert(zeta_series(100))
    for n in range(1, 101):
        assert inv[n] == naive_mobius(n)


def test_invert_unit_is_unit():
    assert invert(unit_series(12)) == unit_series(12)


def test_invert_zeta_at_30():
    assert invert(zeta_series(30))[30] == -1


def test_invert_random_series_roundtrip():
    rng = random.Random(4)
    for _ in range(10):
        a = _random_series(rng, 60, invertible=True)
        assert convolve(a, invert(a)) == unit_series(60)


def test_invert_requires_nonzero_leading():
    with pytest.raises(ValueError):
        invert(DirichletSeries([Fraction(0), Fraction(1)]))


def test_linear_combine_basics(table_200):
    p = prime_zeta_series(10, table_200)
    s = linear_combine([(2, unit_series(10)), (-2, p)])
    assert s[2] == -2
    assert s[1] == 2
    zero = linear_combine([(0, zeta_series(10))])
    assert zero.coefficients() == [0] * 10


def test_linear_combine_rejects_empty():
    with pytest.raises(ValueError):
        linear_combine([])


def test_claim_rhs_vanishes_at_4(table_200):
    # hand computation: (P*P)_4 - P(2s)_4 = 1 - 1 = 0, linear terms 0
    rhs = claim_rhs_series(50, table_200)
    assert rhs[4] == 0


def test_first_mismatch_of_the_claim(table_200):
    lhs = claim_lhs_series(100)
    rhs = claim_rhs_series(100, table_200)
    assert first_mismatch(lhs, rhs) == (30, Fraction(-2), Fraction(0))
    # agreement below the mismatch
    for n in range(1, 30):
        assert lhs[n] == rhs[n]


def test_first_mismatch_reflexive_and_trivial(table_200):
    a = claim_lhs_series(40)
    assert first_mismatch(a, a) is None
    assert first_mismatch(zeta_series(10), unit_series(10)) == (2, 1, 0)


def test_first_mismatch_requires_equal_truncations():
    with pytest.raises(ValueError):
        first_mismatch(zeta_series(10), zeta_series(11))


def test_mismatch_indices_are_never_prime_power_pairs(table_1e4):
    # every mismatch index within 10^4 has >= 3 distinct prime factors,
    # i.e. is not 1, p^a, or p^a q^b
    n = 10**4
    lhs = claim_lhs_series(n)
    rhs = claim_rhs_series(n, table_1e4)
    mismatches = [m for m in range(1, n + 1) if lhs[m] != rhs[m]]
    assert mismatches[0] == 30
    # precisely the squarefree indices with three or more primes
    assert mismatches == [m for m in range(1, n + 1)
                          if naive_mobius(m) and len(naive_factor(m)) >= 3]
    from pzcheck import factorize

    for m in mismatches:
        assert factorize(m, table_1e4).omega >= 3


def test_claim_lhs_series_is_twice_mobius():
    lhs = claim_lhs_series(200)
    for n in range(1, 201):
        assert lhs[n] == 2 * naive_mobius(n)


# -- integer-exact coefficients, against a Fraction reference -------------
#
# The references are naive divisor sums over Fraction, independent of the
# package's loops; integer series (a_1 = +-1) must come out equal and
# still int, rational series equal.


def _ref_convolve(a, b):
    n = min(len(a), len(b))
    return [sum((Fraction(a[d - 1]) * b[m // d - 1] for d in range(1, m + 1) if m % d == 0),
                Fraction(0)) for m in range(1, n + 1)]


def _ref_invert(a):
    b = []
    for m in range(1, len(a) + 1):
        rest = sum((Fraction(a[m // d - 1]) * b[d - 1] for d in range(1, m) if m % d == 0),
                   Fraction(0))
        b.append((int(m == 1) - rest) / Fraction(a[0]))
    return b


def _ref_dilate(a, k, truncation):
    out = [Fraction(0)] * min(truncation, len(a) ** k)
    for j, c in enumerate(a, 1):
        if j**k <= len(out):
            out[j**k - 1] = Fraction(c)
    return out


def _ref_combine(terms):
    n = min(len(s) for _, s in terms)
    return [sum((Fraction(c) * s[i] for c, s in terms), Fraction(0)) for i in range(n)]


_INTS = st.integers(-6, 6)
_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_LENGTH = st.integers(1, 40)


@st.composite
def _series(draw, values, leading=None):
    n = draw(_LENGTH)
    coeffs = draw(st.lists(values, min_size=n, max_size=n))
    if leading is not None:
        coeffs[0] = draw(leading)
    return coeffs


def _all_int(series):
    return all(type(c) is int for c in series.coefficients())


@given(_series(_INTS, leading=st.sampled_from([1, -1])))
def test_invert_integer_series_stays_int(coeffs):
    inv = invert(DirichletSeries(coeffs))
    assert inv.coefficients() == _ref_invert(coeffs)
    assert _all_int(inv)


@given(_series(_RATIONALS, leading=_RATIONALS.filter(bool)))
def test_invert_rational_series_matches_reference(coeffs):
    assert invert(DirichletSeries(coeffs)).coefficients() == _ref_invert(coeffs)


@given(_series(_INTS), _series(_INTS))
def test_convolve_integer_series_matches_reference(a, b):
    got = convolve(DirichletSeries(a), DirichletSeries(b))
    assert got.coefficients() == _ref_convolve(a, b)
    assert _all_int(got)


@given(_series(_RATIONALS), _series(_INTS))
def test_convolve_rational_series_matches_reference(a, b):
    got = convolve(DirichletSeries(a), DirichletSeries(b))
    assert got.coefficients() == _ref_convolve(a, b)


@given(st.lists(st.tuples(_INTS | _RATIONALS, _series(_INTS | _RATIONALS)),
                min_size=1, max_size=4))
def test_linear_combine_matches_reference(terms):
    got = linear_combine([(c, DirichletSeries(s)) for c, s in terms])
    assert got.coefficients() == _ref_combine(terms)
    if all(type(c) is int and all(type(x) is int for x in s) for c, s in terms):
        assert _all_int(got)


@given(_series(_INTS | _RATIONALS), st.integers(1, 3), st.integers(1, 60))
def test_dilate_matches_reference(coeffs, k, truncation):
    got = dilate(DirichletSeries(coeffs), k, truncation)
    assert got.coefficients() == _ref_dilate(coeffs, k, truncation)


def test_claim_series_coefficients_are_ints(table_1e4):
    assert _all_int(claim_lhs_series(1000))
    assert _all_int(claim_rhs_series(1000, table_1e4))


def test_invert_with_leading_two_is_rational_never_float():
    inv = invert(DirichletSeries([2, 1, 0, 3, 1, -1]))
    assert all(type(c) is Fraction for c in inv.coefficients())
    assert inv[1] == Fraction(1, 2)
    assert convolve(DirichletSeries([2, 1, 0, 3, 1, -1]), inv) == unit_series(6)


def test_integral_input_is_stored_as_int():
    s = DirichletSeries([Fraction(4, 2), 0.5, 3, 2.0])
    assert [type(c) for c in s.coefficients()] == [int, Fraction, int, int]
    assert s.coefficients() == [2, Fraction(1, 2), 3, 2]
