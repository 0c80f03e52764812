"""zeta: floating-point evaluation routes and the numeric claim check.

Oracles used here, independent of the implementation under test:

* partial sum + integral-test bracket for zeta(s),
* math.pi closed forms for zeta(2) and zeta(4),
* prime_zeta_direct (plain summation over a sieve) against the
  Mobius/log series route of prime_zeta,
* mpmath.zeta at 30 digits (test-only) for the Euler-Maclaurin core.
"""

import math
import subprocess
import sys

import pytest

from pzcheck import (
    EvalResult,
    PrecisionError,
    TailMode,
    bernoulli,
    claim_lhs,
    claim_rhs,
    euler_even_zeta,
    eval_nested,
    factorize,
    fit_log_quadratic,
    prime_zeta,
    prime_zeta_direct,
    sieve,
    singularity_probe,
    zeta,
    zeta_real,
)
from pzcheck.cli import ClaimReport
from pzcheck.zeta import _EM_COEFFICIENTS, MIN_TOL, ProbeRow, _euler_maclaurin


def _zeta_bracket(s, n):
    """Integral-test bracket: partial sum plus tail bounds."""
    partial = math.fsum(k**-s for k in range(1, n + 1))
    lo = partial + (n + 1) ** (1.0 - s) / (s - 1.0)
    hi = partial + n ** (1.0 - s) / (s - 1.0)
    return lo, hi


# -- zeta_real ---------------------------------------------------------


def test_zeta2_against_integral_bracket():
    lo, hi = _zeta_bracket(2.0, 200_000)  # bracket width ~2.5e-11
    z = zeta_real(2.0)
    assert lo - 1e-12 <= z.value <= hi + 1e-12
    assert z.error_bound <= 1e-12


def test_zeta2_against_closed_form():
    assert zeta_real(2.0).value == pytest.approx(math.pi**2 / 6.0, abs=2e-12)


def test_zeta4_against_closed_form():
    assert zeta_real(4.0).value == pytest.approx(math.pi**4 / 90.0, abs=2e-12)


def test_zeta_large_argument_is_barely_above_one():
    z = zeta_real(50.0, 1e-14)
    assert 1.0 < z.value < 1.0 + 1e-14


def test_zeta_tolerance_is_honored_across_routes():
    coarse = zeta_real(3.0, 1e-9)
    fine = zeta_real(3.0, 1e-14)
    assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound
    assert coarse.error_bound <= 1e-9
    assert fine.error_bound <= 1e-14


def test_zeta_rejects_pole_region():
    for s in (1.0, 0.5, -3.0, 1.0 + 9e-9):
        with pytest.raises(ValueError):
            zeta_real(s)


def test_zeta_rejects_bad_tolerances():
    with pytest.raises(PrecisionError):
        zeta_real(2.0, 1e-16)
    with pytest.raises(ValueError):
        zeta_real(2.0, 0.0)
    with pytest.raises(ValueError):
        zeta_real(2.0, -1e-12)


def test_zeta_and_prime_zeta_share_one_tolerance_floor():
    for f in (zeta_real, prime_zeta):
        assert f(2.0, 1e-15).error_bound <= 1e-15
        with pytest.raises(PrecisionError, match=r"below working-precision floor 1e-15$"):
            f(2.0, 9e-16)


@pytest.mark.parametrize("s", [1000.5, 1073.9, 1074.0, 1e18, 1e300])
def test_every_route_is_finite_past_the_clamp(s):
    # the rising factorial in the Euler-Maclaurin terms overflows for
    # huge s; past 1000 zeta is 1.0 with bound 2^(1-s) instead
    results = [_euler_maclaurin(s), zeta_real(s), prime_zeta(s), claim_lhs(s), claim_rhs(s)]
    for r in results:
        assert math.isfinite(r.value) and math.isfinite(r.error_bound), (s, r)
    assert results[0] == EvalResult(1.0, 2.0 ** (1.0 - s) if s < 1074.0 else 0.0)
    assert claim_lhs(s).value == claim_rhs(s).value == 2.0


def test_euler_maclaurin_at_infinity_is_one():
    assert _euler_maclaurin(math.inf) == EvalResult(1.0, 0.0)


def test_claim_rhs_precision_error_names_the_callers_tol():
    # each P(s) gets tol/8; the error must still quote the tol passed in
    with pytest.raises(PrecisionError, match=r"^tol 1e-16 below working-precision floor 8e-15$"):
        claim_rhs(2.0, 1e-16)
    assert claim_rhs(2.0, 8e-15).error_bound <= 8e-15
    # near the pole the P tolerances tighten, and the floor can bind there
    with pytest.raises(PrecisionError, match=r"^tol 8e-15 at s=1.000001 needs"):
        claim_rhs(1.000001, 8e-15)


@pytest.mark.parametrize("s", [1.0 + 10.0**-k for k in range(1, 7)] + [1.5, 2.0, 4.0, 50.0])
def test_claim_rhs_bound_stays_within_tol(s):
    # near the pole 2|P(s)| multiplies P's own error, so tol/8 each is not enough
    assert claim_rhs(s, 1e-12).error_bound <= 1e-12


def test_zeta_precision_error_close_to_pole():
    # inside the public domain but within 5e-7 of the pole, which the
    # summation core refuses
    with pytest.raises(PrecisionError):
        zeta_real(1.0 + 2e-8)


def test_euler_maclaurin_cutoff_meets_every_accepted_tolerance():
    # the fixed M = 20 at J = 8 keeps the remainder bound under 1.3e-23
    # (worst near s = 1.5) from s - 1 = 5.1e-7 up, far below MIN_TOL,
    # which is why the summation core needs no tolerance argument
    grid = [1.0 + 10.0 ** (k / 20.0) for k in range(-125, 60)] + [1.0 + 5.1e-7, 1.5, 1000.0]
    for s in grid:
        bound = _euler_maclaurin(s).error_bound
        assert bound <= 1.3e-23 < MIN_TOL, s
        assert zeta_real(s, MIN_TOL).error_bound <= MIN_TOL, s


@pytest.mark.parametrize(
    "gap", [5.1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 6.5, 49.0]
)
def test_euler_maclaurin_within_four_ulps_of_mpmath(gap):
    import mpmath  # test-only oracle

    s = 1.0 + gap
    with mpmath.workdps(30):
        truth = mpmath.zeta(mpmath.mpf(s))
        error = abs(mpmath.mpf(_euler_maclaurin(s).value) - truth)
    assert error <= 4 * math.ulp(float(truth)), (s, error)


def test_euler_maclaurin_literals_are_rounded_bernoulli_ratios():
    # the float literals stand in for B_{2j}/(2j)!, j = 1..J + 1, rounded once
    assert len(_EM_COEFFICIENTS) == 9
    for j, coeff in enumerate(_EM_COEFFICIENTS, 1):
        assert coeff == float(bernoulli(2 * j) / math.factorial(2 * j)), j


def test_pole_guard_names_the_gap_not_a_term_count():
    with pytest.raises(PrecisionError) as refused:
        zeta_real(1.0 + 4.9e-7)
    assert "5e-07 of the pole" in str(refused.value)
    assert "term" not in str(refused.value)
    assert zeta_real(1.0 + 5.1e-7).value > 1.9e6


def test_claim_sides_share_one_zeta_summation():
    # P(s) inside claim_rhs needs zeta(s) too; claim_lhs's sum of the
    # same zeta(s) must be the same cache entry
    s = 1.0 + 1e-4
    _euler_maclaurin.cache_clear()
    claim_rhs(s)
    rhs_alone = _euler_maclaurin.cache_info()
    _euler_maclaurin.cache_clear()
    claim_lhs(s)
    claim_rhs(s)
    both = _euler_maclaurin.cache_info()
    assert both.misses == rhs_alone.misses
    assert both.hits == rhs_alone.hits + 1


# -- euler_even_zeta ---------------------------------------------------


def test_euler_closed_form_k1_k2():
    z2 = euler_even_zeta(1)
    assert z2.value == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    z4 = euler_even_zeta(2)
    assert z4.value == pytest.approx(math.pi**4 / 90.0, rel=1e-15)
    assert 2.0 / z2.value == pytest.approx(1.2158542, abs=5e-8)


def test_euler_closed_form_matches_summation_route():
    for k in (1, 2, 3, 5, 8):
        closed = euler_even_zeta(k)
        summed = zeta_real(2.0 * k, 1e-14)
        assert abs(closed.value - summed.value) <= (
            closed.error_bound + summed.error_bound + 1e-15
        )


def test_euler_closed_form_domain():
    for k in (0, -1, 33):
        with pytest.raises(ValueError):
            euler_even_zeta(k)


# -- prime_zeta --------------------------------------------------------


def test_prime_zeta_2_reference_value():
    p = prime_zeta(2.0)
    assert p.value == pytest.approx(0.4522474200, abs=1e-9)
    assert p.error_bound <= 1e-12


def test_prime_zeta_direct_tiny_table():
    p = prime_zeta_direct(2.0, 2)
    assert p.value == 0.25
    assert p.error_bound == pytest.approx(0.5)


def test_prime_zeta_direct_fast_decay():
    p = prime_zeta_direct(10.0, 100)
    by_hand = math.fsum(
        q**-10.0 for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    )
    assert p.value == by_hand
    assert p.error_bound < 1e-18


def test_prime_zeta_series_vs_direct_summation():
    for s in (1.5, 2.0, 3.0, 4.0, 6.0):
        series = prime_zeta(s)
        direct = prime_zeta_direct(s, 10**6)
        assert abs(series.value - direct.value) <= (
            series.error_bound + direct.error_bound
        )


def test_prime_zeta_at_4_consistency():
    # P(4) = sum mu(k)/k log zeta(4k) should sit just under 2^-4
    p = prime_zeta(4.0)
    assert 0.076 < p.value < 0.0772
    direct = prime_zeta_direct(4.0, 10**5)
    assert abs(p.value - direct.value) <= p.error_bound + direct.error_bound


def test_prime_zeta_domain_errors():
    with pytest.raises(ValueError):
        prime_zeta(1.0)
    with pytest.raises(ValueError):
        prime_zeta(2.0, 0.0)
    with pytest.raises(PrecisionError):
        prime_zeta(2.0, 1e-16)
    with pytest.raises(ValueError):
        prime_zeta_direct(0.5, 100)
    with pytest.raises(ValueError):
        prime_zeta_direct(2.0, 1)


# -- claim sides -------------------------------------------------------


def test_claim_sides_at_2_match_published_digits():
    lhs = claim_lhs(2.0)
    rhs = claim_rhs(2.0)
    assert lhs.value == pytest.approx(1.2158542, abs=5e-8)
    assert rhs.value == pytest.approx(1.2230397, abs=5e-8)
    gap = abs(lhs.value - rhs.value)
    assert gap > 0.007
    assert gap > 10.0 * (lhs.error_bound + rhs.error_bound)


def test_claim_sides_ordering_for_moderate_s():
    # the right side overshoots on this whole range, far beyond bounds
    for s in (1.2, 1.5, 2.0, 3.0, 4.0, 6.0):
        lhs = claim_lhs(s)
        rhs = claim_rhs(s)
        margin = rhs.value - lhs.value
        assert margin > 0.0
        assert margin > 2.0 * (lhs.error_bound + rhs.error_bound)


def test_claim_sides_agree_within_bounds_for_large_s():
    # first disagreeing coefficient is at n=30, so the gap ~ 2*30^-s
    # sinks below any representable bound long before s=50
    lhs = claim_lhs(50.0)
    rhs = claim_rhs(50.0)
    assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound


def test_claim_sides_reject_pole_region():
    with pytest.raises(ValueError):
        claim_lhs(1.0)
    with pytest.raises(ValueError):
        claim_rhs(1.0 + 9e-9)


# -- singularity probe and fit -----------------------------------------


@pytest.fixture(scope="module")
def default_probe():
    return singularity_probe([1e-2, 1e-3, 1e-4, 1e-5])


def test_probe_rows_all_succeed(default_probe):
    assert len(default_probe) == 4
    for row in default_probe:
        assert row.lhs is not None and row.rhs is not None
        assert row.note == ""


def test_probe_lhs_tracks_two_epsilon(default_probe):
    by_eps = {row.eps: row for row in default_probe}
    assert 0.0 < by_eps[1e-2].lhs.value < 0.05
    assert by_eps[1e-4].lhs.value == pytest.approx(2e-4, rel=0.2)


def test_probe_lhs_decreases_rhs_increases(default_probe):
    lhs_vals = [row.lhs.value for row in default_probe]
    rhs_vals = [row.rhs.value for row in default_probe]
    assert lhs_vals == sorted(lhs_vals, reverse=True)
    assert rhs_vals == sorted(rhs_vals)
    # divergence: the right side more than doubles over three decades
    assert rhs_vals[-1] > 2.0 * rhs_vals[0]


def test_probe_survives_an_unreachable_row():
    rows = singularity_probe([1e-2, 2e-8])
    assert rows[0].note == ""
    assert rows[1].lhs is None and rows[1].rhs is None
    assert rows[1].note != ""


def test_probe_grid_validation():
    with pytest.raises(ValueError):
        singularity_probe([])
    with pytest.raises(ValueError):
        singularity_probe([0.6])
    with pytest.raises(ValueError):
        singularity_probe([1e-3, 1e-2])  # ascending
    with pytest.raises(ValueError):
        singularity_probe([1e-2, 1e-2])  # not strictly descending
    with pytest.raises(ValueError):
        singularity_probe([1e-2, 0.0])
    with pytest.raises(ValueError, match="probe eps 1e-16 .* 1 [+] eps rounds to 1"):
        singularity_probe([1e-2, 1e-16])  # positive, but s = 1 + eps is 1.0


def test_probe_notes_a_bound_that_overtakes_its_value(monkeypatch):
    # the row keeps both sides and says why they cannot be trusted
    wide = EvalResult(0.01, 0.02)
    monkeypatch.setattr(zeta, "claim_lhs", lambda s: wide)
    (row,) = singularity_probe([1e-2])
    assert row.lhs == wide and row.rhs is not None
    assert row.note == "error bound exceeds value magnitude"


def test_fit_log_quadratic_shape(default_probe):
    fit = fit_log_quadratic(default_probe)
    assert fit.leading > 0.5
    assert fit.rel_residual < 0.1


def test_fit_matches_high_precision_least_squares(default_probe):
    import mpmath  # test-only oracle

    with mpmath.workdps(40):
        xs = [mpmath.mpf(math.log(row.eps)) for row in default_probe]
        design = mpmath.matrix([[x * x, x, 1] for x in xs])
        y = mpmath.matrix([mpmath.mpf(row.rhs.value) for row in default_probe])
        truth, _ = mpmath.qr_solve(design, y)
        fit = fit_log_quadratic(default_probe)
        for got, want in zip(fit[:3], truth):
            assert abs((got - want) / want) <= 2.3e-16


def test_fit_through_three_points_has_zero_residual():
    rows = [
        ProbeRow(eps=e, lhs=EvalResult(1.0, 0.0), rhs=EvalResult(v, 0.0))
        for e, v in [(1e-2, 3.0), (1e-3, 5.5), (1e-4, 7.25)]
    ]
    assert fit_log_quadratic(rows).rel_residual == 0.0


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_import_leaves_numpy_unloaded(module):
    # each costs start-up time on every invocation and none is needed
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, pzcheck.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fit_needs_three_good_rows():
    rows = [
        ProbeRow(eps=1e-2, lhs=None, rhs=None, note="failed"),
        ProbeRow(eps=1e-3, lhs=EvalResult(1.0, 0.0), rhs=EvalResult(1.0, 0.0)),
        ProbeRow(eps=1e-4, lhs=EvalResult(1.0, 0.0), rhs=EvalResult(2.0, 0.0)),
    ]
    with pytest.raises(ValueError):
        fit_log_quadratic(rows)


def test_fit_refuses_a_grid_of_two_distinct_eps():
    # three rows, but two share an eps: the Gram matrix is singular
    rows = [ProbeRow(eps=e, lhs=EvalResult(1.0, 0.0), rhs=EvalResult(v, 0.0))
            for e, v in [(1e-2, 3.0), (1e-3, 5.5), (1e-3, 6.0)]]
    with pytest.raises(ValueError, match="do not determine a quadratic fit"):
        fit_log_quadratic(rows)


# -- EvalResult container ----------------------------------------------


def test_eval_result_rejects_garbage():
    with pytest.raises(ValueError):
        EvalResult(value=math.nan, error_bound=0.0)
    with pytest.raises(ValueError):
        EvalResult(value=1.0, error_bound=-1e-30)
    with pytest.raises(ValueError):
        EvalResult(value=1.0, error_bound=math.inf)


def test_eval_result_replace_checks_its_fields():
    r = EvalResult(value=1.0, error_bound=0.0)
    assert r._replace(error_bound=0.5) == EvalResult(1.0, 0.5)
    with pytest.raises(ValueError):
        r._replace(value=math.nan)
    with pytest.raises(ValueError):
        EvalResult._make([1.0, -1.0])


def test_eval_result_is_frozen():
    r = EvalResult(value=1.0, error_bound=0.0)
    with pytest.raises(AttributeError):
        r.value = 2.0
    # as do the package's other records that carry methods, and the report
    table = sieve(12)
    others = [
        (table, "limit"),
        (factorize(12, table), "n"),
        (eval_nested(2.0, 3, TailMode.ONE_TAIL), "depth"),
        (ClaimReport("CLAIM2_3", "NUMERIC", "CONSISTENT"), "verdict"),
    ]
    for record, field in others:
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
