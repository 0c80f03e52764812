"""Nested-radical evaluation for the claimed prime-zeta radical identity.

The depth-n object is

    f(n) = sqrt(2/zeta(s) - sqrt(2/zeta(2s) - sqrt(2/zeta(4s) - ... )))

with n square roots; level k (1 = outermost) holds zeta(2^(k-1) s).
The tail beyond level n is replaced by 0 (ZERO_TAIL, the naive
truncation) or by 1 (ONE_TAIL, the accelerated form: 1 is the positive
fixed point of X = sqrt(2 - X), which is what the deep tail looks like
as zeta -> 1).  Both sequences approach the same limit; ONE_TAIL gets
there at roughly double-exponential speed while ZERO_TAIL crawls in
like 2^(-n).

Evaluation is a single right-to-left fold.  values[m-1] of the
resulting trace is the partial value after m fold steps, so values[-1]
is the full depth-n evaluation.  Each level's zeta comes from the
zeta module's Euler-Maclaurin core, cached there by argument alone, so
repeated folds at one s sum each zeta once; zeta.two_over turns each
level's zeta, clamped to 1.0 there past 1000, into 2/zeta with its bound.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .zeta import EvalResult, _euler_maclaurin, prime_zeta, two_over

_MAX_DEPTH = 64


class TailMode(enum.Enum):
    ZERO_TAIL = "zero"
    ONE_TAIL = "one"


class NegativeRadicandError(ValueError):
    """A radicand went negative during the right-to-left fold.

    level is 1-based from the outermost radical; the failing radicand
    is kept because how negative it went is itself a finding (the
    domain of convergence is an open question).
    """

    def __init__(self, level: int, radicand: float):
        self.level = level
        self.radicand = radicand
        super().__init__(f"negative radicand {radicand!r} at level {level}")


class RadicalTrace(namedtuple("RadicalTrace", "s depth tail_mode values error_bounds")):
    """Partial values of one right-to-left nested-radical evaluation.

    values[m-1] is the partial after m fold steps (so the innermost
    radical first, the full depth-n value last); error_bounds tracks the
    propagated zeta error bounds for each partial.
    """

    __slots__ = ()


def eval_nested(s: float, depth: int, tail_mode: TailMode) -> RadicalTrace:
    """Evaluate the depth-n radical at s by one right-to-left fold.

    Raises NegativeRadicandError (with the 1-based level, outermost
    first) the moment a radicand dips below zero; silently continuing
    into complex values would bury the domain question.
    """
    if not s > 1.0:
        raise ValueError(f"eval_nested needs s > 1, got {s}")
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {_MAX_DEPTH}], got {depth}")
    if not isinstance(tail_mode, TailMode):
        raise ValueError(f"tail_mode must be a TailMode, got {tail_mode!r}")

    values = []
    bounds = []
    partial = 1.0 if tail_mode is TailMode.ONE_TAIL else 0.0
    partial_err = 0.0
    for level in range(depth, 0, -1):
        term = two_over(_euler_maclaurin(s * 2.0 ** (level - 1)))
        radicand = term.value - partial
        radicand_err = term.error_bound + partial_err
        if radicand < 0.0:
            raise NegativeRadicandError(level, radicand)
        partial = math.sqrt(radicand)
        if radicand_err < radicand:
            # |sqrt(x) - sqrt(y)| = |x-y| / (sqrt(x)+sqrt(y))
            partial_err = radicand_err / (partial + math.sqrt(radicand - radicand_err))
        else:
            # the interval reaches 0; sqrt(err) covers [0, rad+err]
            partial_err = math.sqrt(radicand_err)
        values.append(partial)
        bounds.append(partial_err)
    return RadicalTrace(
        s=s,
        depth=depth,
        tail_mode=tail_mode,
        values=tuple(values),
        error_bounds=tuple(bounds),
    )


def convergence_report(s: float, max_depth: int) -> list[tuple[int, float, float]]:
    """Per-depth gaps |f_zero(n) - f*| and |f_one(n) - f*|, n = 1..max_depth.

    f* is the accelerated sequence at max_depth — no closed form for
    the limit is available, so the best computed value plays
    reference.  A depth whose evaluation dies on a negative radicand
    reports an infinite gap: the truncation simply does not exist there,
    which for comparison purposes is as far from the limit as it gets.
    """
    reference = eval_nested(s, max_depth, TailMode.ONE_TAIL)
    f_star = reference.values[-1]
    rows = []
    for n in range(1, max_depth + 1):
        gaps = []
        for mode in (TailMode.ZERO_TAIL, TailMode.ONE_TAIL):
            try:
                trace = eval_nested(s, n, mode)
                gaps.append(abs(trace.values[-1] - f_star))
            except NegativeRadicandError:
                gaps.append(math.inf)
        rows.append((n, gaps[0], gaps[1]))
    return rows


def tail_fixed_point(x0: float = 0.5, tol: float = 1e-14) -> float:
    """The positive root of X^2 + X - 2 = 0 by iterating X <- sqrt(2 - X).

    The map contracts on [-2, 2] (derivative magnitude ~ 0.35 near the
    root), so any start there lands on 1; this is the value the deep
    radical tail collapses to, hence the ONE_TAIL seed.
    """
    if not -2.0 <= x0 <= 2.0:
        raise ValueError(f"start must lie in [-2, 2], got {x0}")
    if not 1e-15 <= tol <= 1.0:
        raise ValueError(f"tol must lie in [1e-15, 1], got {tol}")
    x = x0
    for _ in range(500):
        nxt = math.sqrt(2.0 - x)
        if abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise ArithmeticError("fixed-point iteration failed to converge")  # pragma: no cover


class Claim4Result(namedtuple("Claim4Result", "radical_value prime_zeta_value gap")):
    """1 - f_one(depth) and P(s) as EvalResults, and their absolute gap."""

    __slots__ = ()


def claim4_check(s: float, depth: int, tol: float = 1e-12) -> Claim4Result:
    """Compare 1 - f_one(depth) against prime_zeta(s).

    The radical side's bound adds a depth-stability margin — evaluate
    five levels deeper and charge twice the drift — on top of the
    propagated zeta errors, so a gap exceeding the combined bounds is
    not a truncation artifact.  (The exact-series cross-check that
    squaring the radical identity reproduces the claimed identity's
    structure is written out in cli._claim4 with dirichlet's operations.)
    """
    trace = eval_nested(s, depth, TailMode.ONE_TAIL)
    deeper = eval_nested(s, min(depth + 5, _MAX_DEPTH), TailMode.ONE_TAIL)
    drift = abs(deeper.values[-1] - trace.values[-1])
    radical = EvalResult(
        value=1.0 - trace.values[-1],
        error_bound=trace.error_bounds[-1] + deeper.error_bounds[-1] + 2.0 * drift,
    )
    pz = prime_zeta(s, tol)
    return Claim4Result(
        radical_value=radical,
        prime_zeta_value=pz,
        gap=abs(pz.value - radical.value),
    )


def domain_scan(
    s_values: list[float], depth: int, tail_mode: TailMode
) -> list[tuple[float, bool, int | None]]:
    """For each s, whether the depth-n fold stays real, else the level.

    Supports the open question of how large "sufficiently large s" must
    be: the smallest grid point with all radicands positive is an
    empirical report, not an asserted threshold.
    """
    rows = []
    for s in s_values:
        try:
            eval_nested(s, depth, tail_mode)
            rows.append((s, True, None))
        except NegativeRadicandError as exc:
            rows.append((s, False, exc.level))
    return rows
