"""radical: nested-radical evaluation, convergence, and the depth check.

Closed-form oracles: depth-1 radicals reduce to sqrt(2/zeta(s) - tail)
with zeta(2) = pi^2/6 known exactly, and the tail fixed point is the
positive root of X^2 + X - 2 (i.e. 1).
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import tail_fixed_point
from pzcheck.zeta import EvalResult, _euler_maclaurin

from pzcheck import (
    NegativeRadicandError,
    claim4_check,
    convergence_report,
    domain_scan,
    eval_nested,
    prime_zeta,
    radical,
)


# -- single evaluations against closed forms ---------------------------


def test_depth_one_zero_tail_closed_form():
    assert eval_nested(2.0, 1, 0.0).value == pytest.approx(
        math.sqrt(12.0) / math.pi, abs=1e-12
    )


def test_depth_one_one_tail_closed_form():
    assert eval_nested(2.0, 1, 1.0).value == pytest.approx(
        math.sqrt(12.0 / math.pi**2 - 1.0), abs=1e-12
    )


def test_innermost_partial_is_a_plain_radical():
    # the first fold step of a depth-d fold at s from seed t is the
    # depth-1 fold at 2^(d-1) s from t; for d = 3 at s = 2 from 0 it is
    # sqrt(2/zeta(8)), and zeta(8) = pi^8/9450
    assert eval_nested(8.0, 1, 0.0).value == pytest.approx(
        math.sqrt(2.0 * 9450.0 / math.pi**8), abs=1e-12
    )


def test_fold_returns_an_eval_result_with_its_bound():
    result = eval_nested(2.0, 12, 1.0)
    assert isinstance(result, EvalResult)
    assert all(eval_nested(2.0, d, 1.0).error_bound >= 0.0 for d in range(1, 13))
    assert result.error_bound < 1e-11


def test_reevaluation_is_bit_identical():
    assert eval_nested(2.0, 20, 1.0) == eval_nested(2.0, 20, 1.0)


def test_deep_levels_collapse_to_exact_one():
    # past the clamp, every accelerated fold step is sqrt(2 - 1) = 1.0,
    # so extra depth beyond stabilization changes nothing at all; the
    # innermost step of the depth-30 fold at s = 2 is at 2^29 * 2
    assert eval_nested(2.0 ** 30, 1, 1.0).value == 1.0
    assert eval_nested(2.0, 30, 1.0).value == eval_nested(2.0, 12, 1.0).value


def _reference_fold(s, depth, tail):
    """The fold with its own zeta clamp past 1000 and 2/z written inline.

    Returns (value, error_bound), or the 1-based level whose radicand
    went negative.
    """
    partial = tail
    partial_err = 0.0
    for level in range(depth, 0, -1):
        x = s * 2.0 ** (level - 1)
        if x > 1000.0:
            z, ez = 1.0, (2.0 ** (1.0 - x) if x < 1074.0 else 0.0)
        else:
            ev = _euler_maclaurin(x)
            z, ez = ev.value, ev.error_bound
        radicand = 2.0 / z - partial
        radicand_err = 2.0 * ez / (z * (z - ez)) + partial_err
        if radicand < 0.0:
            return level
        partial = math.sqrt(radicand)
        if radicand_err < radicand:
            partial_err = radicand_err / (partial + math.sqrt(radicand - radicand_err))
        else:
            partial_err = math.sqrt(radicand_err)
    return partial, partial_err


def test_fold_bound_covers_an_interval_reaching_zero(monkeypatch):
    # a zeta bound of 0.5 makes each 2/zeta bound exceed its radicand, so
    # every partial's interval reaches 0 and its bound is sqrt(radicand_err)
    real = _euler_maclaurin

    def wide(x):
        return EvalResult(real(x).value, 0.5)

    monkeypatch.setattr(radical, "_euler_maclaurin", wide)
    monkeypatch.setitem(globals(), "_euler_maclaurin", wide)
    # the partial after m steps of the depth-5 fold at s = 2 is the
    # depth-m fold at 2^(5-m) * 2
    for m in range(1, 6):
        result = eval_nested(2.0 ** (6 - m), m, 1.0)
        assert result == _reference_fold(2.0 ** (6 - m), m, 1.0)
        assert result.error_bound > result.value


# the ids keep the names these cases had when the seed was an enum
@pytest.mark.parametrize("tail", [0.0, 1.0], ids=["TailMode.ZERO_TAIL", "TailMode.ONE_TAIL"])
@pytest.mark.parametrize("s", [1.6, 2.0, 3.0, 6.0])
def test_fold_matches_reference_at_every_depth(s, tail):
    # levels past zeta's clamp (every s here reaches it by depth 10)
    # must fold exactly as a clamp and a 2/z of the fold's own would
    for depth in range(1, 65):
        want = _reference_fold(s, depth, tail)
        try:
            result = eval_nested(s, depth, tail)
        except NegativeRadicandError as exc:
            assert exc.level == want, (s, depth)
            continue
        assert result == want, (s, depth)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1.6, 6.0), st.integers(1, 10))
def test_fold_is_monotone_in_its_seed(t1, t2, s, depth):
    # each level x -> sqrt(a - x) decreases in x, and IEEE subtraction
    # and sqrt are monotone, so the fold alternates exactly: it never
    # rises with the seed at odd depth and never falls at even depth
    t1, t2 = sorted((t1, t2))
    try:
        low, high = eval_nested(s, depth, t1).value, eval_nested(s, depth, t2).value
    except NegativeRadicandError:
        assume(False)
    if depth % 2:
        assert low >= high
    else:
        assert low <= high


@pytest.mark.parametrize("tail", [math.nan, math.inf, -math.inf, -1e-300, EvalResult(-0.5, 1.0)])
def test_seed_must_be_finite_and_non_negative(tail):
    value = tail.value if isinstance(tail, EvalResult) else tail
    with pytest.raises(ValueError, match=f"tail seed .*{value!r}$"):
        eval_nested(2.0, 5, tail)


# -- convergence of the two tail choices --------------------------------


def test_accelerated_value_reference_digits():
    assert 1.0 - eval_nested(2.0, 12, 1.0).value == pytest.approx(0.4588, abs=5e-5)


def test_both_tails_agree_in_the_deep_limit():
    f_zero = eval_nested(2.0, 40, 0.0).value
    f_one = eval_nested(2.0, 40, 1.0).value
    assert abs(f_zero - f_one) < 1e-10


def test_accelerated_increments_never_grow():
    vals = {n: eval_nested(2.0, n, 1.0).value for n in range(2, 14)}
    increments = [abs(vals[n + 1] - vals[n]) for n in range(2, 13)]
    for a, b in zip(increments, increments[1:]):
        assert b <= a


def test_zero_tail_gap_halves_per_level():
    # the tail map contracts with derivative -1/2 at its fixed point, so
    # consecutive naive-truncation gaps shrink by roughly that factor
    rows = convergence_report(2.0, 25)
    gaps = {n: gap_zero for n, gap_zero, _ in rows}
    for n in range(3, 18):
        ratio = gaps[n + 1] / gaps[n]
        assert 0.3 < ratio < 0.7


def test_convergence_report_shape():
    rows = convergence_report(2.0, 10)
    assert [n for n, _, _ in rows] == list(range(1, 11))
    # the reference is the accelerated value at max depth, so its own
    # gap vanishes identically
    assert rows[-1][2] == 0.0


def test_gaps_decay_at_larger_s():
    rows = convergence_report(4.0, 20)
    gz = [gap_zero for _, gap_zero, _ in rows]
    go = [gap_one for _, _, gap_one in rows]
    for a, b in zip(gz[1:], gz[2:]):
        assert b <= a + 1e-15
    assert gz[-1] < 1e-4
    assert go[-1] <= 1e-13


# -- domain behavior -----------------------------------------------------


def test_zero_tail_depth_two_fails_at_the_outermost_level():
    with pytest.raises(NegativeRadicandError) as info:
        eval_nested(2.0, 2, 0.0)
    assert info.value.level == 1
    assert info.value.radicand < 0.0


def test_accelerated_failures_only_ever_at_level_one():
    for s in (1.45, 1.5, 1.55):
        _, ok, level = domain_scan(s, 12)
        if not ok:
            assert level == 1


def test_accelerated_mode_is_safe_from_about_1_6():
    rows = [domain_scan(s, 20) for s in (1.6, 1.8, 2.0, 3.0, 6.0)]
    assert all(ok for _, ok, _ in rows)
    assert all(level is None for _, _, level in rows)


def test_domain_scan_reports_failures():
    rows = [domain_scan(1.4, 12), domain_scan(2.0, 12)]
    assert rows[0][1] is False and rows[0][2] == 1
    assert rows[1][1] is True and rows[1][2] is None


def _level_one_radicand(s: float, depth: int):
    # 2/zeta(s) - R(2s), R(2s) the depth-(depth - 1) fold seeded with 1, at
    # 30 digits: the radicand whose sign decides the ONE_TAIL fold's level 1
    import mpmath  # test-only oracle

    with mpmath.workdps(30):
        partial = mpmath.mpf(1)
        for level in range(depth, 1, -1):
            partial = mpmath.sqrt(2 / mpmath.zeta(mpmath.mpf(s) * 2 ** (level - 1)) - partial)
        return 2 / mpmath.zeta(s) - partial


@pytest.mark.parametrize("depth", [20, 64])
def test_the_fold_turns_real_between_1_5719226_and_1_5719227(depth):
    # the level-1 radicand changes sign once, at s* ~ 1.5719226620536: the
    # fold leaves the reals at level 1 just below it and stays real just above
    below, above = 1.5719226, 1.5719227
    assert domain_scan(below, depth) == (below, False, 1)
    assert domain_scan(above, depth) == (above, True, None)
    assert float(_level_one_radicand(below, depth)) == pytest.approx(-5.00e-8, rel=1e-3)
    assert float(_level_one_radicand(above, depth)) == pytest.approx(3.06e-8, rel=1e-3)


# -- tail fixed point ----------------------------------------------------


def test_tail_fixed_point_default_start():
    x = tail_fixed_point()
    assert abs(x - 1.0) <= 1e-12
    assert abs(x * x + x - 2.0) <= 1e-12


def test_tail_fixed_point_from_above():
    assert tail_fixed_point(1.9) == pytest.approx(1.0, abs=1e-12)


def test_tail_fixed_point_validation():
    with pytest.raises(ValueError):
        tail_fixed_point(2.5)
    with pytest.raises(ValueError):
        tail_fixed_point(0.5, 1e-16)
    with pytest.raises(ValueError):
        tail_fixed_point(0.5, 2.0)


# -- the depth check -----------------------------------------------------


def _gap(res):
    return abs(res.prime_zeta_value.value - res.radical_value.value)


def test_claim4_gap_at_s2_is_macroscopic():
    res = claim4_check(2.0, 8)
    assert res.radical_value.value == pytest.approx(0.4588, abs=5e-5)
    assert res.prime_zeta_value.value == pytest.approx(0.4522474200, abs=1e-9)
    combined = res.radical_value.error_bound + res.prime_zeta_value.error_bound
    assert _gap(res) > 0.0065
    assert _gap(res) > 10.0 * combined


def test_claim4_gap_is_depth_stable():
    g8 = _gap(claim4_check(2.0, 8))
    g12 = _gap(claim4_check(2.0, 12))
    g20 = _gap(claim4_check(2.0, 20))
    assert abs(g8 - g12) < 1e-9
    assert abs(g12 - g20) < 1e-12


def test_claim4_gap_survives_at_s6():
    # tiny but still resolvable: the first disagreeing series index is
    # 30, and 30^-6 sits well above the evaluation bounds
    res = claim4_check(6.0, 20)
    combined = res.radical_value.error_bound + res.prime_zeta_value.error_bound
    assert 1e-10 < _gap(res) < 1e-8
    assert _gap(res) > combined


def test_claim4_sides_are_internally_consistent():
    res = claim4_check(3.0, 15)
    assert res.radical_value.value == 1.0 - eval_nested(3.0, 15, 1.0).value
    direct = prime_zeta(3.0)
    assert res.prime_zeta_value.value == direct.value


def _radical_50_digits(y: float):
    # R(y) = sqrt(2/zeta(y) - R(2y)), folded 40 levels from seed 1 at 50
    # digits; past level 40 the tail is within 2^(4 - 2^40 y) of 1
    import mpmath  # test-only oracle

    with mpmath.workdps(50):
        partial = mpmath.mpf(1)
        for level in range(40, 0, -1):
            partial = mpmath.sqrt(2 / mpmath.zeta(mpmath.mpf(y) * 2 ** (level - 1)) - partial)
        return partial


def test_tail_bracket_holds():
    # |R(y) - 1| <= 2^(4 - y), the bracket claim4_check seeds its fold with
    import mpmath

    with mpmath.workdps(50):
        for y in (2.0 + 0.25 * k for k in range(249)):
            assert abs(_radical_50_digits(y) - 1) <= mpmath.mpf(2) ** (4 - mpmath.mpf(y)), y


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0, 3.0, 6.0, 10.0])
def test_radical_side_bound_covers_the_truncation(s):
    # below 1e-12 the error is rounding, which no bound charges yet: at
    # s = 1.6, depths 6 to 8, it is 1.1e-15 against a bound of 2.7e-23
    import mpmath

    with mpmath.workdps(50):
        truth = 1 - _radical_50_digits(s)
        covered = 0
        for depth in range(1, 9):
            try:
                side = claim4_check(s, depth).radical_value
            except NegativeRadicandError:
                continue
            error = abs(truth - mpmath.mpf(side.value))
            if error > 1e-12:
                assert error <= side.error_bound, (s, depth)
                covered += 1
        assert covered >= 1


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.0), st.floats(1.6, 6.0), st.integers(1, 10))
def test_a_bounded_seed_changes_only_the_bound(seed, bound, s, depth):
    try:
        plain = eval_nested(s, depth, seed)
    except NegativeRadicandError:
        assume(False)
    bounded = eval_nested(s, depth, EvalResult(seed, bound))
    assert bounded.value == plain.value
    assert bounded.error_bound >= plain.error_bound


# -- validation ----------------------------------------------------------


def test_eval_nested_validation():
    with pytest.raises(ValueError):
        eval_nested(1.0, 5, 1.0)
    with pytest.raises(ValueError):
        eval_nested(2.0, 0, 1.0)
    with pytest.raises(ValueError):
        eval_nested(2.0, 65, 1.0)
    with pytest.raises(TypeError):
        eval_nested(2.0, 5, "one")
