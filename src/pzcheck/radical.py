"""Nested-radical evaluation for the claimed prime-zeta radical identity.

The depth-n object is

    f(n) = sqrt(2/zeta(s) - sqrt(2/zeta(2s) - sqrt(2/zeta(4s) - ... )))

with n square roots; level k (1 = outermost) holds zeta(2^(k-1) s).
The tail beyond level n is replaced by a numeric seed: 0 (ZERO_TAIL,
the naive truncation) or 1 (ONE_TAIL, the accelerated form: 1 is the
positive fixed point of X = sqrt(2 - X), which is what the deep tail
looks like as zeta -> 1).  Both sequences approach the same limit;
ONE_TAIL gets there at roughly double-exponential speed while ZERO_TAIL
crawls in like 2^(-n).  Each level is decreasing in what sits under it,
so folds from a lower and an upper bound of the true tail bracket the
radical.

Evaluation is a single right-to-left fold that returns the full
depth-n value as an EvalResult.  Each level's zeta comes from the
zeta module's Euler-Maclaurin core, cached there by argument alone, so
repeated folds at one s sum each zeta once; zeta.two_over turns each
level's zeta, clamped to 1.0 there past 1000, into 2/zeta with its bound.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .zeta import EvalResult, _euler_maclaurin, prime_zeta, two_over

_MAX_DEPTH = 64


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


def eval_nested(s: float, depth: int, tail: float) -> EvalResult:
    """Evaluate the depth-n radical at s, seeded with tail, by one right-to-left fold.

    tail stands for everything beyond level n and must be finite and
    >= 0.  Raises NegativeRadicandError (with the 1-based level,
    outermost first) the moment a radicand dips below zero; silently
    continuing into complex values would bury the domain question.
    """
    if not s > 1.0:
        raise ValueError(f"eval_nested needs s > 1, got {s}")
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {_MAX_DEPTH}], got {depth}")
    if not 0.0 <= tail < math.inf:
        raise ValueError(f"tail seed must be finite and >= 0, got {tail!r}")

    partial = tail
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
    return EvalResult(value=partial, error_bound=partial_err)


def convergence_report(s: float, max_depth: int) -> list[tuple[int, float, float]]:
    """Per-depth gaps |f_zero(n) - f*| and |f_one(n) - f*|, n = 1..max_depth.

    f* is the accelerated sequence at max_depth — no closed form for
    the limit is available, so the best computed value plays
    reference.  A depth whose evaluation dies on a negative radicand
    reports an infinite gap: the truncation simply does not exist there,
    which for comparison purposes is as far from the limit as it gets.
    """
    f_star = eval_nested(s, max_depth, 1.0).value
    rows = []
    for n in range(1, max_depth + 1):
        gaps = []
        for tail in (0.0, 1.0):
            try:
                gaps.append(abs(eval_nested(s, n, tail).value - f_star))
            except NegativeRadicandError:
                gaps.append(math.inf)
        rows.append((n, gaps[0], gaps[1]))
    return rows


class Claim4Result(namedtuple("Claim4Result", "radical_value prime_zeta_value")):
    """1 - f_one(depth) and P(s), each an EvalResult with its bound."""

    __slots__ = ()


def claim4_check(s: float, depth: int, tol: float = 1e-12) -> Claim4Result:
    """The two sides of the radical claim: 1 - f_one(depth) and prime_zeta(s).

    The radical side's bound adds a depth-stability margin — evaluate
    at depth min(depth + 5, 64) and charge twice the drift — on top of
    the propagated zeta errors.  From depth 60 that fold is fewer than
    five levels deeper, and at depth 64 it is the same fold, so the
    drift term is 0; ROADMAP item 2's enclosure replaces this margin.
    (The exact-series cross-check that squaring the radical identity
    reproduces the claimed identity's structure is written out in
    cli._claim4 with dirichlet's operations.)
    """
    fold = eval_nested(s, depth, 1.0)
    deeper = eval_nested(s, min(depth + 5, _MAX_DEPTH), 1.0)
    drift = abs(deeper.value - fold.value)
    radical = EvalResult(
        value=1.0 - fold.value,
        error_bound=fold.error_bound + deeper.error_bound + 2.0 * drift,
    )
    return Claim4Result(radical_value=radical, prime_zeta_value=prime_zeta(s, tol))


def domain_scan(s: float, depth: int) -> tuple[float, bool, int | None]:
    """Whether the depth-n ONE_TAIL fold at s stays real: (s, True, None),
    else (s, False, level) with the 1-based level whose radicand went negative.

    Supports the open question of how large "sufficiently large s" must
    be: the smallest grid point with all radicands positive is an
    empirical report, not an asserted threshold.
    """
    try:
        eval_nested(s, depth, 1.0)
    except NegativeRadicandError as exc:
        return s, False, exc.level
    return s, True, None
