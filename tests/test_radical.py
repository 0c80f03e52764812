"""radical: nested-radical evaluation, convergence, and the depth check.

Closed-form oracles: depth-1 radicals reduce to sqrt(2/zeta(s) - tail)
with zeta(2) = pi^2/6 known exactly, and the tail fixed point is the
positive root of X^2 + X - 2 (i.e. 1).
"""

import math

import pytest

from conftest import tail_fixed_point
from pzcheck.zeta import EvalResult, _euler_maclaurin

from pzcheck import (
    NegativeRadicandError,
    TailMode,
    claim4_check,
    convergence_report,
    domain_scan,
    eval_nested,
    prime_zeta,
    radical,
)


# -- single evaluations against closed forms ---------------------------


def test_depth_one_zero_tail_closed_form():
    trace = eval_nested(2.0, 1, TailMode.ZERO_TAIL)
    assert len(trace.values) == 1
    assert trace.values[0] == pytest.approx(math.sqrt(12.0) / math.pi, abs=1e-12)


def test_depth_one_one_tail_closed_form():
    trace = eval_nested(2.0, 1, TailMode.ONE_TAIL)
    assert trace.values[0] == pytest.approx(
        math.sqrt(12.0 / math.pi**2 - 1.0), abs=1e-12
    )


def test_innermost_partial_is_a_plain_radical():
    # first fold step of a depth-3 zero-tail evaluation at s=2 is
    # sqrt(2/zeta(8)), and zeta(8) = pi^8/9450
    trace = eval_nested(2.0, 3, TailMode.ZERO_TAIL)
    assert trace.values[0] == pytest.approx(
        math.sqrt(2.0 * 9450.0 / math.pi**8), abs=1e-12
    )
    assert len(trace.values) == 3
    assert len(trace.error_bounds) == 3


def test_trace_metadata_and_bounds():
    trace = eval_nested(2.0, 12, TailMode.ONE_TAIL)
    assert trace.s == 2.0
    assert trace.depth == 12
    assert trace.tail_mode is TailMode.ONE_TAIL
    assert all(b >= 0.0 for b in trace.error_bounds)
    assert trace.error_bounds[-1] < 1e-11


def test_reevaluation_is_bit_identical():
    a = eval_nested(2.0, 20, TailMode.ONE_TAIL)
    b = eval_nested(2.0, 20, TailMode.ONE_TAIL)
    assert a.values == b.values
    assert a.error_bounds == b.error_bounds


def test_deep_levels_collapse_to_exact_one():
    # past the clamp, every accelerated fold step is sqrt(2 - 1) = 1.0,
    # so extra depth beyond stabilization changes nothing at all
    deep = eval_nested(2.0, 30, TailMode.ONE_TAIL)
    assert deep.values[0] == 1.0
    shallow = eval_nested(2.0, 12, TailMode.ONE_TAIL)
    assert deep.values[-1] == shallow.values[-1]


def _reference_fold(s, depth, tail_mode):
    """The fold with its own zeta clamp past 1000 and 2/z written inline.

    Returns (values, error_bounds), or the 1-based level whose radicand
    went negative.
    """
    values, bounds = [], []
    partial = 1.0 if tail_mode is TailMode.ONE_TAIL else 0.0
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
        values.append(partial)
        bounds.append(partial_err)
    return tuple(values), tuple(bounds)


def test_fold_bound_covers_an_interval_reaching_zero(monkeypatch):
    # a zeta bound of 0.5 makes each 2/zeta bound exceed its radicand, so
    # every partial's interval reaches 0 and its bound is sqrt(radicand_err)
    real = _euler_maclaurin

    def wide(x):
        return EvalResult(real(x).value, 0.5)

    monkeypatch.setattr(radical, "_euler_maclaurin", wide)
    monkeypatch.setitem(globals(), "_euler_maclaurin", wide)
    trace = eval_nested(2.0, 5, TailMode.ONE_TAIL)
    assert (trace.values, trace.error_bounds) == _reference_fold(2.0, 5, TailMode.ONE_TAIL)
    assert all(b > v for v, b in zip(trace.values, trace.error_bounds))


@pytest.mark.parametrize("tail_mode", list(TailMode))
@pytest.mark.parametrize("s", [1.6, 2.0, 3.0, 6.0])
def test_fold_matches_reference_at_every_depth(s, tail_mode):
    # levels past zeta's clamp (every s here reaches it by depth 10)
    # must fold exactly as a clamp and a 2/z of the fold's own would
    for depth in range(1, 65):
        want = _reference_fold(s, depth, tail_mode)
        try:
            trace = eval_nested(s, depth, tail_mode)
        except NegativeRadicandError as exc:
            assert exc.level == want, (s, depth)
            continue
        assert (trace.values, trace.error_bounds) == want, (s, depth)


# -- convergence of the two tail choices --------------------------------


def test_accelerated_value_reference_digits():
    trace = eval_nested(2.0, 12, TailMode.ONE_TAIL)
    assert 1.0 - trace.values[-1] == pytest.approx(0.4588, abs=5e-5)


def test_both_tails_agree_in_the_deep_limit():
    f_zero = eval_nested(2.0, 40, TailMode.ZERO_TAIL).values[-1]
    f_one = eval_nested(2.0, 40, TailMode.ONE_TAIL).values[-1]
    assert abs(f_zero - f_one) < 1e-10


def test_accelerated_increments_never_grow():
    vals = {
        n: eval_nested(2.0, n, TailMode.ONE_TAIL).values[-1] for n in range(2, 14)
    }
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
        eval_nested(2.0, 2, TailMode.ZERO_TAIL)
    assert info.value.level == 1
    assert info.value.radicand < 0.0


def test_accelerated_failures_only_ever_at_level_one():
    for s in (1.45, 1.5, 1.55):
        for s_, ok, level in domain_scan([s], 12):
            if not ok:
                assert level == 1


def test_accelerated_mode_is_safe_from_about_1_6():
    rows = domain_scan([1.6, 1.8, 2.0, 3.0, 6.0], 20)
    assert all(ok for _, ok, _ in rows)
    assert all(level is None for _, _, level in rows)


def test_domain_scan_reports_failures():
    rows = domain_scan([1.4, 2.0], 12)
    assert rows[0][1] is False and rows[0][2] == 1
    assert rows[1][1] is True and rows[1][2] is None


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
    folded = eval_nested(3.0, 15, TailMode.ONE_TAIL)
    assert res.radical_value.value == 1.0 - folded.values[-1]
    direct = prime_zeta(3.0)
    assert res.prime_zeta_value.value == direct.value


# -- validation ----------------------------------------------------------


def test_eval_nested_validation():
    with pytest.raises(ValueError):
        eval_nested(1.0, 5, TailMode.ONE_TAIL)
    with pytest.raises(ValueError):
        eval_nested(2.0, 0, TailMode.ONE_TAIL)
    with pytest.raises(ValueError):
        eval_nested(2.0, 65, TailMode.ONE_TAIL)
    with pytest.raises(ValueError):
        eval_nested(2.0, 5, "one")
