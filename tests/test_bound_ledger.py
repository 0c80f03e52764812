"""The bound ledger: where each bounded value breaks its own error_bound.

Each public bounded value is compared with an mpmath truth (test-only)
on one fixed grid of 173 points.  A value's ledger is the set of grid
points where |value - truth| > error_bound.  Every ledger is asserted
equal to the rows recorded here, so a new violation fails, and so does
a row that a fix makes honest: a change to a bound edits these rows and
says which it removed.  Adding a row is a regression.

Bounds cover truncation only, so today most rows are rounding.  The
truths carry 50 digits, and from s = 66 up s + 100 bits, so that
zeta(s) - 1 ~ 2^-s stays resolved beside 1 and a bound of 0.0 beside
it reads as the violation it is.

A ledger full of rows cannot see a bound shrink there, so each value
also records the grid points where its error_bound reads exactly 0.0,
from its own computation alone, and its tightness band at every grid
point, floor(log2(error_bound / |error|)) clipped to [-8, 8]: a bound
that shrinks, or grows 2^8-fold, moves a band even where no ledger row
or zero changes.

Two verdict lists ride along: the grid points from s = 1.8 up where
`check claim2_3 --mode numeric` or `check claim4` reads REFUTED although
the true gap lies within the printed combined bound.
"""

import mpmath  # test-only oracle
import pytest

from pzcheck import (
    NegativeRadicandError,
    claim4_check,
    claim_lhs,
    claim_rhs,
    eval_nested,
    prime_zeta,
    zeta_real,
)
from pzcheck.cli import cmd_check

GRID = (
    [1.0 + gap for gap in (5.1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
    + [1.05, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8]
    + [2.0 + 0.25 * i for i in range(153)]  # 2 to 40 by 0.25
    + [45.0, 50.0, 60.0, 100.0, 300.0, 1000.0, 1e4]
)


def _between(lo, hi):
    return {s for s in GRID if lo <= s <= hi}


def _truth_bits(s):  # the truths' precision, as the module docstring gives it
    return max(166, int(s) + 100)


def _fold(zetas):
    # the radical fold seeded with 1, outermost level's zeta first; None once
    # a radicand goes negative
    partial = mpmath.mpf(1)
    for z in reversed(zetas):
        radicand = 2 / z - partial
        if radicand < 0:
            return None
        partial = mpmath.sqrt(radicand)
    return partial


@pytest.fixture(scope="module")
def truths():
    """s -> (zeta(s), P(s), P(2s), depth-20 fold, depth-64 fold), each fold seeded with 1."""
    known = {}

    def memo(function, x):  # the folds and P(2s) revisit arguments
        key = (function, x, mpmath.mp.prec)
        if key not in known:
            known[key] = function(mpmath.mpf(x))
        return known[key]

    table = {}
    for s in GRID:
        with mpmath.workprec(_truth_bits(s)):
            zetas = [memo(mpmath.zeta, s * 2.0**k) for k in range(64)]
            table[s] = (zetas[0], memo(mpmath.primezeta, s), memo(mpmath.primezeta, 2.0 * s),
                        _fold(zetas[:20]), _fold(zetas))
    return table


def _claim23_truth(t):
    # (2/zeta(s), 2 - 2P(s) + P(s)^2 - P(2s))
    return 2 / t[0], 2 - 2 * t[1] + t[1] ** 2 - t[2]


# value -> (its computation at s, its truth from s's row, its ledger)
_LEDGERS = {
    "zeta_real": (zeta_real, lambda t: t[0], set(GRID)),
    "prime_zeta": (prime_zeta, lambda t: t[1],
                   {13.5, 13.75} | _between(18.5, 20.75) | _between(27.25, 27.75)
                   | _between(28.25, 1e4)),
    "claim_lhs": (claim_lhs, lambda t: _claim23_truth(t)[0], set(GRID)),
    "claim_rhs": (claim_rhs, lambda t: _claim23_truth(t)[1],
                  {10.75, 13.75, 14.0, 14.5, 18.25} | _between(19.0, 22.25)
                  | _between(27.25, 1e4)),
    # the folds stay real from s = 1.6 up: 162 points
    "eval_nested": (lambda s: eval_nested(s, 20, 1.0), lambda t: t[3], _between(1.6, 1e4)),
    "claim4_check.radical_value": (lambda s: claim4_check(s, 20).radical_value,
                                   lambda t: None if t[4] is None else 1 - t[4],
                                   _between(1.6, 1e4)),
}


@pytest.mark.parametrize("name", list(_LEDGERS))
def test_bound_ledger(name, truths):
    compute, truth_of, ledger = _LEDGERS[name]
    rows = set()
    for s in GRID:
        with mpmath.workprec(_truth_bits(s)):
            truth = truth_of(truths[s])
            try:
                result = compute(s)
            except NegativeRadicandError:
                assert truth is None, s  # the fold leaves the reals where the true one does
                continue
            if abs(mpmath.mpf(result.value) - truth) > result.error_bound:
                rows.add(s)
    assert sorted(rows - ledger) == [], "new violations"
    assert sorted(ledger - rows) == [], "rows made honest: remove them from the ledger"


# value -> the grid points where its error_bound is 0.0: the bounds
# underflow there, and ROADMAP item 17's floor empties these rows
_ZERO_BOUNDS = {
    "zeta_real": {300.0, 1000.0, 1e4},
    "prime_zeta": {1000.0, 1e4},
    "claim_lhs": {300.0, 1000.0, 1e4},
    "claim_rhs": {1000.0, 1e4},
    "eval_nested": {300.0, 1000.0, 1e4},
    "claim4_check.radical_value": {300.0, 1000.0, 1e4},
}


@pytest.mark.parametrize("name", list(_LEDGERS))
def test_zero_bounds(name):
    compute = _LEDGERS[name][0]
    rows = set()
    for s in GRID:
        try:
            result = compute(s)
        except NegativeRadicandError:
            continue
        if result.error_bound == 0.0:
            rows.add(s)
    assert sorted(rows) == sorted(_ZERO_BOUNDS[name])


# value -> its band at each GRID point, one character each: "a" to "h" for
# bands -1 to -8 (its ledger rows), "0" to "8" for bands 0 to 8, and "."
# where the fold leaves the reals; an error of 0 reads 8 and a bound of 0
# beside a nonzero error -8.  The split strings break at s = 2, 12, 22 and 32.
_BAND_CHARS = "hgfedcba012345678"
_BANDS = {
    "zeta_real": "h" * 173,
    "prime_zeta": ("3333334522242"
                   "4442226222668882222222212222222128888885"
                   "845552aa122122221211201102adcadeffhh1111"
                   "212121111212212112710aba0cacddecdfgghghh" + "h" * 40),
    "claim_lhs": "h" * 173,
    "claim_rhs": ("4532224454758"
                  "44362823226875855221326773122221200a8333"
                  "2233210bc2d12222222111001a11deegfhhhhhhh"
                  "hh2121121212222114200abaacbcddecefgghghh" + "h" * 40),
    "eval_nested": "." * 11 + "h" * 162,
    "claim4_check.radical_value": "." * 11 + "h" * 162,
}


def _band(result, truth):
    error = abs(mpmath.mpf(result.value) - truth)
    if error == 0:
        return 8
    if result.error_bound == 0.0:
        return -8
    # frexp's exponent e puts the ratio in [2^(e-1), 2^e): its floor(log2) is e - 1
    return max(-8, min(8, mpmath.frexp(result.error_bound / error)[1] - 1))


@pytest.mark.parametrize("name", list(_LEDGERS))
def test_tightness_bands(name, truths):
    compute, truth_of, _ = _LEDGERS[name]
    bands = []
    for s in GRID:
        with mpmath.workprec(_truth_bits(s)):
            try:
                result = compute(s)
            except NegativeRadicandError:
                bands.append(".")
                continue
            bands.append(_BAND_CHARS[_band(result, truth_of(truths[s])) + 8])
    assert "".join(bands) == _BANDS[name]


def _refuted_within_bound(claim, gap_name, true_gap, truths):
    points = []
    for s in _between(1.8, 1e4):
        report = cmd_check(claim, "numeric", {"s": s})
        if report.verdict == "REFUTED":
            gap, = (fact for fact in report.evidence if fact["name"] == gap_name)
            with mpmath.workprec(_truth_bits(s)):
                if abs(true_gap(truths[s])) <= gap["combined_error_bound"]:
                    points.append(s)
    return sorted(points)


def test_claim2_3_refuted_on_rounding(truths):
    points = _refuted_within_bound(
        "claim2_3", "difference", lambda t: _claim23_truth(t)[0] - _claim23_truth(t)[1], truths)
    assert points == [13.75, 14.0, 14.5, 18.5, 18.75, 19.25, 19.75, 20.0, 21.0, 21.25]


def test_claim4_refuted_on_rounding(truths):
    points = _refuted_within_bound("claim4", "gap", lambda t: 1 - t[4] - t[1], truths)
    assert points == sorted({13.75} | _between(18.5, 20.75))
