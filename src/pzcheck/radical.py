"""Nested-radical evaluation for the claimed prime-zeta radical identity.

The depth-n object is

    f(n) = sqrt(2/zeta(s) - sqrt(2/zeta(2s) - sqrt(2/zeta(4s) - ... )))

with n square roots; level k (1 = outermost) holds zeta(2^(k-1) s).
The tail beyond level n is replaced by a seed: 0 (ZERO_TAIL, the naive
truncation) or 1 (ONE_TAIL, the accelerated form: 1 is the positive
fixed point of X = sqrt(2 - X), which is what the deep tail looks like
as zeta -> 1).  Both sequences approach the same limit; ONE_TAIL gets
there at roughly double-exponential speed while ZERO_TAIL crawls in
like 2^(-n).  A seed may be an EvalResult, whose bound brackets the
true tail; claim4_check seeds its one fold with the proved bracket
1 +- 2^(4 - 2^n s).

Evaluation is a single right-to-left fold that returns the full
depth-n value as an EvalResult.  Each level's zeta comes from the
zeta module's Euler-Maclaurin core, cached there by argument alone, so
repeated folds at one s sum each zeta once.  The seed's bound and each
level's 2/zeta (1.0 past zeta's clamp at 1000), subtraction and square
root combine in EvalResult's operators: truncation only, not rounding.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .zeta import DEFAULT_TOL, EvalResult, _euler_maclaurin, prime_zeta

_MAX_DEPTH = 64


class NegativeRadicandError(ValueError):
    """A radicand went negative during the right-to-left fold.

    level is 1-based from the outermost radical; the failing radicand
    is kept because how negative it went is itself a finding (at depths
    20 and 64 the fold leaves the reals at level 1 just below s = 1.5719227).
    """

    def __init__(self, level: int, radicand: float):
        self.level = level
        self.radicand = radicand
        super().__init__(f"negative radicand {radicand!r} at level {level}")


def eval_nested(s: float, depth: int, tail: float | EvalResult) -> EvalResult:
    """Evaluate the depth-n radical at s, seeded with tail, by one right-to-left fold.

    tail stands for everything beyond level n, a float or an EvalResult
    whose bound the fold carries; its value must be finite and >= 0.
    Raises NegativeRadicandError (with the 1-based level, outermost
    first) the moment a radicand dips below zero; silently continuing
    into complex values would bury the domain question.
    """
    if not s > 1.0:
        raise ValueError(f"eval_nested needs s > 1, got {s}")
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {_MAX_DEPTH}], got {depth}")
    seed, seed_bound = tail if isinstance(tail, EvalResult) else (tail, 0.0)
    if not 0.0 <= seed < math.inf:
        raise ValueError(f"tail seed must be finite and >= 0, got {seed!r}")

    partial = EvalResult(seed, seed_bound)
    for level in range(depth, 0, -1):
        radicand = _euler_maclaurin(s * 2.0 ** (level - 1)).over(2.0) - partial
        if radicand.value < 0.0:
            raise NegativeRadicandError(level, radicand.value)
        partial = radicand.sqrt()
    return partial


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


def claim4_check(s: float, depth: int, tol: float = DEFAULT_TOL) -> Claim4Result:
    """The two sides of the radical claim: 1 - f_one(depth) and prime_zeta(s).

    Its one fold is seeded with 1 +- 2^(4-y), y = 2^depth s, a bracket of
    the true tail R(y) = sqrt(2/zeta(y) - R(2y)) (Herschfeld, Amer. Math.
    Monthly 42 (1935): each level is monotone in what sits under it):
    1. For y >= 2, zeta(y) - 1 < 2^(2-y); so |R(y)^2 - 1| <= 2^(3-y) + |R(2y) - 1|.
    2. By induction on the fold, |R(y) - 1| <= 2^(3-y) + 2^(4-2y) <= 2^(4-y), y >= 2.
    3. So the truncations are Cauchy, and R lies inside the propagated bound.
    4. 2.0 ** depth * s may overflow to inf; the bracket is then 0.0.
    (cli._claim4 checks with dirichlet's operations that squaring the
    radical identity reproduces the claimed identity's structure.)
    """
    fold = eval_nested(s, depth, EvalResult(1.0, 2.0 ** (4.0 - 2.0 ** depth * s)))
    return Claim4Result(radical_value=1.0 - fold, prime_zeta_value=prime_zeta(s, tol))


def domain_scan(s: float, depth: int) -> tuple[float, bool, int | None]:
    """Whether the depth-n ONE_TAIL fold at s stays real: (s, True, None),
    else (s, False, level) with the 1-based level whose radicand went negative.

    How large "sufficiently large s" must be is tested, not certified: at
    depths 20 and 64 the ONE_TAIL fold is not real at s = 1.5719226 and
    is real at s = 1.5719227.
    """
    try:
        eval_nested(s, depth, 1.0)
    except NegativeRadicandError as exc:
        return s, False, exc.level
    return s, True, None
