"""dirichlet: truncated Dirichlet series algebra over the integers."""

import math
import operator
import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_convolve, naive_factor, naive_mobius
from pzcheck import (
    DirichletSeries,
    EvalResult,
    claim_lhs_series,
    claim_rhs_series,
    convolve,
    dilate,
    invert,
    prime_zeta_series,
    sieve,
    unit_series,
    zeta_series,
)
from pzcheck.dirichlet import rhs_form


def _random_series(rng, n, invertible=False):
    coeffs = [rng.randint(-3, 3) for _ in range(n)]
    if invertible:
        coeffs[0] = rng.choice((1, -1))
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
    d = dilate(prime_zeta_series(30, table_200))
    expected = {4, 9, 25}
    assert {n for n in range(1, 31) if d[n] != 0} == expected
    assert all(d[n] == 1 for n in expected)


def test_dilate_zeta_squares():
    d = dilate(zeta_series(10))
    assert {n for n in range(1, 11) if d[n] != 0} == {1, 4, 9}


def test_dilate_never_hits_non_kth_powers(table_200):
    # s -> 2s: every index that is not a square stays zero
    rng = random.Random(1)
    for _ in range(20):
        s = _random_series(rng, 40)
        d = dilate(s)
        squares = {m * m for m in range(1, 41)}
        for n in range(1, 41):
            if n not in squares:
                assert d[n] == 0


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
    mu = DirichletSeries([naive_mobius(n) for n in range(1, 101)])
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
        invert(DirichletSeries([0, 1]))


def test_operator_basics(table_200):
    p = prime_zeta_series(10, table_200)
    s = 2 - 2 * p
    assert s[2] == -2
    assert s[1] == 2
    assert s == unit_series(10) * 2 + p * -2
    zero = 0 * zeta_series(10)
    assert zero.coefficients() == [0] * 10
    assert p.square() == convolve(p, p)


def test_sums_are_truncated_to_the_shorter_series():
    a, b = DirichletSeries([1, 2, 3, 4]), DirichletSeries([5, 6])
    assert (a + b).coefficients() == (b + a).coefficients() == [6, 8]
    assert (a - b).coefficients() == [-4, -4]
    assert (b - a).coefficients() == [4, 4]


def test_int_minus_series_is_that_multiple_of_the_unit_minus_it():
    a = DirichletSeries([3, -1, 0, 2])
    assert (0 - a).coefficients() == [-3, 1, 0, -2]
    assert 5 - a == 5 * unit_series(4) - a
    assert (1 - unit_series(7)).coefficients() == [0] * 7


def test_scalars_must_be_ints():
    a = zeta_series(3)
    for scalar in (0.5, 2.0, Fraction(1, 2), Fraction(2), a):
        for call in (lambda: scalar * a, lambda: a * scalar):
            with pytest.raises(TypeError):
                call()
    for c in (0.5, 2.0, Fraction(2)):  # c - a, with a non-int c
        with pytest.raises(TypeError):
            c - a


def test_non_series_operands_are_refused():
    # a number or an EvalResult never joins a series in a sum: each raises
    # rather than returning one
    p = zeta_series(4)
    for other in (1, 1.0, [1, 1, 1, 1], EvalResult(1.0, 0.0)):
        for call in (lambda: p + other, lambda: other + p, lambda: p - other):
            with pytest.raises(TypeError):
                call()


def test_claim_rhs_vanishes_at_4(table_200):
    # hand computation: (P*P)_4 - P(2s)_4 = 1 - 1 = 0, linear terms 0
    rhs = claim_rhs_series(50, table_200)
    assert rhs[4] == 0


def test_first_mismatch_of_the_claim(table_200):
    # the refutation is the head of the support of lhs - rhs
    lhs = claim_lhs_series(100)
    rhs = claim_rhs_series(100, table_200)
    d = lhs - rhs
    m = next(n for n in range(1, 101) if d[n])
    hit = (m, lhs[m], rhs[m])
    assert hit == (30, -2, 0)
    assert [type(x) for x in hit] == [int, int, int]
    # agreement below the mismatch
    for n in range(1, 30):
        assert lhs[n] == rhs[n]


def test_first_mismatch_reflexive_and_trivial(table_200):
    a = claim_lhs_series(40)
    assert not any((a - a).coefficients())
    d = zeta_series(10) - unit_series(10)
    assert d.coefficients() == [0] + [1] * 9


def test_mismatch_indices_are_never_prime_power_pairs(table_1e5):
    # d = lhs - rhs is supported within 2 * 10^4 exactly on the squarefree
    # m with three or more distinct primes (never 1, p^a or p^a q^b),
    # where rhs_m = 0 and so d_m = lhs_m = 2 mu(m); d_m = 0 everywhere else
    n = 2 * 10**4
    lhs = claim_lhs_series(n)
    rhs = claim_rhs_series(n, table_1e5)
    d = lhs - rhs
    mismatches = [m for m in range(1, n + 1) if d[m]]
    assert mismatches[0] == 30
    assert len(mismatches) == 4850
    paper_set = [m for m in range(1, n + 1) if naive_mobius(m) and len(naive_factor(m)) >= 3]
    assert mismatches == paper_set
    for m in paper_set:
        assert rhs[m] == 0
        assert d[m] == 2 * naive_mobius(m)
    from pzcheck import factorize

    for m in mismatches:
        assert len(factorize(m, table_1e5).factors) >= 3


def test_far_end_sum_settles_every_s_from_three(table_1e5):
    # d_n = lhs_n - rhs_n.  RHS(s) - 2/zeta(s) = -sum d_n n^-s, and with
    # d_30 = -2 first this is 30^-s (2 - sum_{n > 30} d_n (30/n)^s), which
    # for s >= 3 is at least 30^-s (2 - S - tail), S the sum below to
    # n = N and tail = 4 * 30^3 / (2 N^2) bounding the terms past N
    n = 10**5
    diff = claim_lhs_series(n) - claim_rhs_series(n, table_1e5)
    d = {m: diff[m] for m in range(1, n + 1) if diff[m]}
    assert min(d) == 30 and d[30] == -2
    past = {m: x for m, x in d.items() if m > 30}
    assert len(past) == 27887
    assert set(past.values()) == {2, -2}
    total = math.fsum(abs(x) * (30 / m) ** 3 for m, x in past.items())
    assert round(total, 6) == 1.583606
    tail = 4 * 30**3 / (2 * n**2)
    assert tail == pytest.approx(5.4e-6)
    assert total + tail < 2


# the real primitive characters (d/.) mod q = |d|, as residue tables
# [chi(0), ..., chi(q - 1)], with the first index and coefficient of the
# twisted difference: the smallest squarefree n coprime to q with three
# distinct primes, where chi(n) d_n = chi(n) 2 mu(n)
_REAL_CHARACTERS = [
    (-3, [0, 1, -1], 70, -2),
    (-4, [0, 1, 0, -1], 105, -2),
    (5, [0, 1, -1, -1, 1], 42, 2),
    (8, [0, 1, 0, -1, 0, -1, 0, 1], 105, -2),
    (-8, [0, 1, 0, 1, 0, -1, 0, -1], 105, -2),
]


def _twist(chi, a):
    q = len(chi)
    return DirichletSeries([chi[n % q] * a[n] for n in range(1, a.truncation + 1)])


@pytest.mark.parametrize("d, chi, first, coefficient", _REAL_CHARACTERS)
def test_twisted_difference_is_the_twist_of_the_difference(table_1e4, d, chi, first, coefficient):
    # the character twist of the claim (Agelas's Lemma 2.3), built from
    # twisted leaves: chi is completely multiplicative, so twisting commutes
    # with invert and convolve, and P_{chi^2}(2s) is the twist of P(2s),
    # chi(p)^2 at p^2, not the dilation of P_chi(s), chi(p) at p^2
    q = len(chi)
    assert q == abs(d)
    assert all(chi[a * b % q] == chi[a] * chi[b] for a in range(q) for b in range(q))
    assert all(abs(chi[a]) == (math.gcd(a, q) == 1) for a in range(q))
    n = 2000
    p = prime_zeta_series(n, table_1e4)
    twisted = 2 * invert(_twist(chi, zeta_series(n))) - rhs_form(
        _twist(chi, p), _twist(chi, dilate(p)))
    assert twisted == _twist(chi, claim_lhs_series(n) - claim_rhs_series(n, table_1e4))
    m = next(k for k in range(1, n + 1) if twisted[k])
    assert (m, twisted[m]) == (first, coefficient)
    assert dilate(_twist(chi, p)) != _twist(chi, dilate(p))


@pytest.mark.parametrize("s", [1.05, 1.1, 1.2, 1.3, 3, 4, 6, 10])
def test_claim_lhs_is_below_its_rhs(s):
    import mpmath  # test-only oracle

    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        p = mpmath.primezeta(s)
        rhs = 2 - 2 * p + p * p - mpmath.primezeta(2 * s)
        assert 2 / mpmath.zeta(s) - rhs < 0


def test_claim_lhs_series_is_twice_mobius():
    lhs = claim_lhs_series(200)
    for n in range(1, 201):
        assert lhs[n] == 2 * naive_mobius(n)


def test_walks_hold_no_second_copy_of_the_coefficients():
    # the inputs are built before tracing starts, so the peak counts the
    # output list and the walk's support: an index list costs ~56 bytes a
    # coefficient, and a list of (index, coefficient) tuples ~108
    n = 200_000
    table = sieve(n)
    for op, args in ((invert, (zeta_series(n),)),
                     (convolve, (prime_zeta_series(n, table), zeta_series(n)))):
        tracemalloc.start()
        try:
            op(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * n, (op.__name__, peak / n)


# -- integer coefficients, against a Fraction reference -----------------
#
# The references are naive divisor sums over Fraction, and conftest's
# schoolbook naive_convolve, independent of the package's loops; every
# result must come out equal to the reference and still int.


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
# three coefficients in four zero, so the nonzero walks skip most indices
_SPARSE = st.builds(lambda zero, c: 0 if zero else c, st.integers(0, 3).map(bool), _INTS)
_UNITS = st.sampled_from([1, -1])
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


@given(_series(_INTS, leading=_UNITS) | _series(_SPARSE, leading=_UNITS))
def test_invert_integer_series_stays_int(coeffs):
    inv = invert(DirichletSeries(coeffs))
    assert inv.coefficients() == _ref_invert(coeffs)
    assert _all_int(inv)


@given(_series(_INTS, leading=_INTS.filter(bool))
       | _series(_SPARSE, leading=_INTS.filter(bool)))
def test_invert_rational_series_matches_reference(coeffs):
    # the reference inverts over the rationals: where its inverse is
    # integral (a_1 = +-1) invert returns it, and where b_1 = 1/a_1 is
    # not an integer invert refuses the series
    ref = _ref_invert(coeffs)
    if coeffs[0] in (1, -1):
        assert invert(DirichletSeries(coeffs)).coefficients() == ref
    else:
        assert ref[0].denominator != 1
        with pytest.raises(ValueError, match="only if a_1 is"):
            invert(DirichletSeries(coeffs))


@given(_series(_INTS) | _series(_SPARSE), _series(_INTS) | _series(_SPARSE))
def test_convolve_integer_series_matches_reference(a, b):
    got = convolve(DirichletSeries(a), DirichletSeries(b))
    assert got.coefficients() == naive_convolve(a, b)
    assert _all_int(got)


@given(_series(_SPARSE), _series(_INTS) | _series(_SPARSE))
def test_convolve_rational_series_matches_reference(a, b):
    # the schoolbook product over the rationals agrees with the integer
    # one, and the same series given as Fractions is refused outright
    qa, qb = [Fraction(x) for x in a], [Fraction(x) for x in b]
    got = convolve(DirichletSeries(a), DirichletSeries(b))
    assert got.coefficients() == naive_convolve(qa, qb)
    assert _all_int(got)
    with pytest.raises(TypeError):
        DirichletSeries(qa)


@given(st.lists(st.tuples(_INTS, _series(_INTS | _SPARSE)), min_size=1, max_size=4))
def test_scaled_sum_matches_reference(terms):
    got = reduce(operator.add, [c * DirichletSeries(s) for c, s in terms])
    assert got.coefficients() == _ref_combine(terms)
    assert _all_int(got)


def _ref_rhs(coeffs):
    # the right side as claim_rhs_series summed it before rhs_form: four
    # scaled terms, 2 * unit - 2 * p + p * p - dilate(p)
    n = len(coeffs)
    return _ref_combine([(2, [1] + [0] * (n - 1)), (-2, coeffs),
                         (1, naive_convolve(coeffs, coeffs)), (-1, _ref_dilate(coeffs, 2, n))])


@given(_series(_INTS) | _series(_SPARSE))
def test_rhs_form_of_series_matches_the_four_term_expansion(coeffs):
    p = DirichletSeries(coeffs)
    got = rhs_form(p, dilate(p))
    assert got.coefficients() == _ref_rhs(coeffs)
    assert _all_int(got)


@given(_series(_INTS | _SPARSE))
def test_dilate_matches_reference(coeffs):
    got = dilate(DirichletSeries(coeffs))
    assert got.coefficients() == _ref_dilate(coeffs, 2, len(coeffs))
    assert _all_int(got)


def test_claim_series_coefficients_are_ints(table_1e4):
    assert _all_int(claim_lhs_series(1000))
    assert _all_int(claim_rhs_series(1000, table_1e4))


def test_invert_refuses_every_leading_coefficient_but_a_unit():
    # over the integers only the units a_1 = +-1 have an inverse, so
    # 0, 2 and -3 are refused alike, with one message
    messages = set()
    for leading in (0, 2, -3):
        with pytest.raises(ValueError) as refused:
            invert(DirichletSeries([leading, 1, 0, 3, 1, -1]))
        messages.add(str(refused.value))
    assert messages == {"a series has an integer convolution inverse only if a_1 is +1 or -1"}


def test_non_integer_coefficients_are_refused(table_200):
    for coefficient in (0.5, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            DirichletSeries([coefficient])
    with pytest.raises(TypeError):
        Fraction(1, 2) * zeta_series(3)
    flag = DirichletSeries([True])
    assert flag.coefficients() == [1] and type(flag[1]) is int
    # sizes too: a float is never rounded into one
    for call in (lambda: zeta_series(10.0), lambda: unit_series(2.5),
                 lambda: prime_zeta_series(10.0, table_200)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_equal_series_hash_alike_and_compare_exactly():
    inv = invert(DirichletSeries([1, 4, 6, 8]))
    want = DirichletSeries([1, -4, -6, 8])
    assert inv == want
    assert not any((inv - want).coefficients())
    assert hash(inv) == hash(want)
    assert repr(inv) == "DirichletSeries(N=4; 1, -4, -6, 8)"
    assert repr(DirichletSeries(list(range(1, 10)))) == "DirichletSeries(N=9; 1, 2, 3, 4, 5, 6, 7, 8, ...)"
    assert inv != inv.coefficients()  # another type: __eq__ returns NotImplemented
    with pytest.raises(ValueError, match="at least coefficient a_1"):
        DirichletSeries([])
