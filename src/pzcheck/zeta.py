"""Floating-point evaluation of zeta(s), the prime zeta function P(s),
and both sides of the identity under test, with explicit truncation
error bounds.

zeta values come from Euler-Maclaurin summation at M = 20, J = 8:

    zeta(s) = sum_{n=1}^{M} n^{-s} + M^{1-s}/(s-1) - M^{-s}/2
            + sum_{j=1}^{J} B_{2j}/(2j)! * (s)_{2j-1} * M^{-s-2j+1} + R

where (s)_m is the rising factorial s(s+1)...(s+m-1).  For real s > 1
the remainder satisfies |R| <= |B_{2J+2}/(2J+2)!| * (s)_{2J+1} *
M^{-s-2J-1} (first omitted term), which is the bound we report.  M and
J are sized together from it (Johansson, Numer. Algorithms 69 (2015)):
it is at most 1.3e-23 for every s > 1, so M need not grow near s = 1.  Note
the sign of the M^{-s}/2 term: with the sum running through n = M the
correction is subtracted; folding it into a sum through M-1 flips it
to the + form some references print.  Past s = 1000 the rising factorial
overflows; there zeta(s) is 1.0 with the bound zeta(s) - 1 < 2^(1-s).
Both bounds underflow to 0.0, which claims an exact value: the remainder
from s ~ 231.7 to 1000, and 2^(1-s) from s = 1074 on (ROADMAP item 17).

P(s) uses the Mobius-weighted log-zeta series

    P(s) = sum_{k>=1} mu(k)/k * log zeta(ks),

truncated at K with the geometric tail bound that follows from
zeta(x) - 1 < 2^(2-x) for x >= 2:

    sum_{k>K} |log zeta(ks)|/k  <=  4 * 2^(-(K+1)s) / ((K+1)(1 - 2^(-s))).

Every error_bound covers truncation only, what the formulas above cut
off.  Bounds combine only in EvalResult's operators (fsum among them;
an error term such as P(s)'s tail joins as EvalResult(0.0, term)), and
none counts double rounding, so a verdict can rest on it: `check
claim2_3 --mode numeric --s 20` is REFUTED on a one-ulp difference of
2.2e-16 against a combined bound of 2.3e-18.  zeta's own rounding is
ROADMAP item 17, in _euler_maclaurin; the rest is item 2, in EvalResult.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from math import fsum, log

from .arith import omega_upto, sieve
from .dirichlet import rhs_form

# Euler-Maclaurin cutoff M.  With the order J (_EM_ORDER, below) it keeps
# the first omitted term at most 1.3e-23 for every s > 1, under MIN_TOL.
_EM_CUTOFF = 20

_MIN_POLE_GAP = 5e-7  # s - 1 below it is refused until bounds carry rounding

_CLAMP_EXPONENT = 1000.0  # past it zeta(s) is 1.0 at working precision

# Smallest tolerance zeta_real and prime_zeta accept, and every tol's default.
MIN_TOL = 1e-15
DEFAULT_TOL = 1e-12


class PrecisionError(ValueError):
    """Requested accuracy is not achievable at working precision."""


class EvalResult(namedtuple("EvalResult", "value error_bound")):
    """A numeric value plus an upper bound on its truncation error.

    Bounds combine only in the operators below, fsum among them, each the
    first-order rule of its operation with numbers as exact operands (any
    other operand is a TypeError, never tuple concatenation); an error
    term joins as EvalResult(0.0, term).  None counts rounding.
    """

    __slots__ = ()

    def __new__(cls, value: float, error_bound: float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        if not (math.isfinite(error_bound) and error_bound >= 0.0):
            raise ValueError(f"bad error bound {error_bound!r}")
        return tuple.__new__(cls, (value, error_bound))

    @classmethod
    def _make(cls, iterable):  # so _replace runs the checks too
        return cls(*iterable)

    def __reduce__(self):  # protocols 0 and 1 too unpickle through __new__
        return type(self), tuple(self)

    def __add__(self, other: EvalResult) -> EvalResult:
        if not isinstance(other, EvalResult):
            return NotImplemented
        return EvalResult(self.value + other.value, self.error_bound + other.error_bound)

    def __radd__(self, other):  # runs before tuple + x could concatenate
        raise TypeError(f"cannot add EvalResult to {type(other).__name__!r}")

    @staticmethod
    def fsum(terms: list[EvalResult]) -> EvalResult:  # bounds added left to right
        return EvalResult(fsum(t.value for t in terms), sum(t.error_bound for t in terms))

    def __sub__(self, other: EvalResult) -> EvalResult:
        if not isinstance(other, EvalResult):
            return NotImplemented
        return EvalResult(self.value - other.value, self.error_bound + other.error_bound)

    def __rsub__(self, c: float) -> EvalResult:  # c - x
        return EvalResult(c - self.value, self.error_bound)

    def __mul__(self, c: float) -> EvalResult:  # c * x, with c on either side
        return EvalResult(c * self.value, abs(c) * self.error_bound)

    __rmul__ = __mul__

    def square(self) -> EvalResult:
        value, e = self
        return EvalResult(value * value, (2.0 * abs(value) + e) * e)

    def over(self, c: float) -> EvalResult:  # c/x for c >= 0 and x > e
        value, e = self
        return EvalResult(c / value, c * e / (value * (value - e)))

    def log(self) -> EvalResult:  # for x > e
        return EvalResult(log(self.value), self.error_bound / (self.value - self.error_bound))

    def sqrt(self) -> EvalResult:  # for x >= 0
        value, e = self
        root = math.sqrt(value)
        if e < value:  # |sqrt(x) - sqrt(y)| = |x - y| / (sqrt(x) + sqrt(y))
            return EvalResult(root, e / (root + math.sqrt(value - e)))
        return EvalResult(root, math.sqrt(e))  # x - e <= 0: sqrt(e) covers [0, x + e]


# B_{2j}/(2j)! for j = 1..J + 1, each the exact rational rounded once
# and written out, so that evaluating zeta runs no Fraction arithmetic
# (a test rebuilds them from a Bernoulli recurrence); the last one only
# bounds the remainder.
_EM_COEFFICIENTS = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
)
_EM_ORDER = len(_EM_COEFFICIENTS) - 1  # J, so the remainder reads B_{2J+2}/(2J+2)!


def _em_remainder_bound(s: float) -> float:
    rising = 1.0
    for i in range(2 * _EM_ORDER + 1):
        rising *= s + i
    return abs(_EM_COEFFICIENTS[-1]) * rising * float(_EM_CUTOFF) ** (-s - 2 * _EM_ORDER - 1)


@lru_cache(maxsize=4096)
def _euler_maclaurin(s: float) -> EvalResult:
    """zeta(s) for real s > 1 at the fixed cutoff M = 20, order J = 8.

    Every zeta evaluation runs through here, so this alone decides the
    domain: s <= 1 is a ValueError, s - 1 below _MIN_POLE_GAP a
    PrecisionError, s past _CLAMP_EXPONENT 1.0 with bound 2^(1-s).  The
    bound underflows to 0.0 from s ~ 231.7 to 1000 and from s = 1074 on.

    The remainder bound is at most 1.3e-23 for every s > 1, below every
    tolerance the callers accept, so the result depends on s alone and
    one cache entry serves every caller.
    """
    if not s > 1.0:
        raise ValueError(f"zeta evaluation needs s > 1, got {s}")
    if s - 1.0 < _MIN_POLE_GAP:
        raise PrecisionError(
            f"s={s} lies within {_MIN_POLE_GAP:g} of the pole at s = 1; "
            "too close for working precision"
        )
    if s > _CLAMP_EXPONENT:
        return EvalResult(value=1.0, error_bound=2.0 ** (1.0 - s) if s < 1074.0 else 0.0)
    value = fsum(n ** -s for n in range(1, _EM_CUTOFF + 1))
    mf = float(_EM_CUTOFF)
    value += mf ** (1.0 - s) / (s - 1.0) - 0.5 * mf ** -s
    power = mf ** (-s - 1.0)  # M^{-s-2j+1} at j=1
    rising = s  # (s)_{2j-1} at j=1
    for t, coeff in enumerate(_EM_COEFFICIENTS[:-1]):
        value += coeff * rising * power
        power /= mf * mf
        rising *= (s + 2 * t + 1) * (s + 2 * t + 2)
    return EvalResult(value=value, error_bound=_em_remainder_bound(s))


def zeta_real(s: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """zeta(s) for real s > 1 with truncation error <= tol.

    Only the tolerance is checked here; the summation core rejects
    s <= 1 (ValueError) and s within 5e-7 of the pole (PrecisionError).
    """
    _check_tol(tol)
    return _euler_maclaurin(s)


def _check_tol(tol: float, floor: float = MIN_TOL) -> None:
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if tol < floor:
        raise PrecisionError(f"tol {tol} below working-precision floor {floor}")


@lru_cache(maxsize=1)
def _mobius_small() -> tuple[int, ...]:
    # mu(k) for k up to the largest truncation index K; K*s > 60 with
    # s > 1 keeps K below 64; entry 0 is 0.
    omega, squarefree = omega_upto(64, sieve(64))
    return tuple(squarefree[k] * (-1) ** omega[k] for k in range(65))


def _pz_tail_bound(k: int, s: float) -> float:
    # sum_{j>k} |log zeta(js)|/j with log zeta(x) <= zeta(x)-1 < 4*2^-x
    # for x >= 2 (true for js >= 2s > 2), summed geometrically.
    return 4.0 * 2.0 ** (-(k + 1) * s) / ((k + 1) * (1.0 - 2.0 ** -s))


def prime_zeta(s: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """P(s) = sum over primes of p^{-s} via the Mobius log-zeta series.

    Truncates at the first K where the geometric tail bound drops under
    tol/2 or K*s exceeds 60 (there 2^{-Ks} is below 1e-18 and the tail
    bound is far under any accepted tol).  Each log zeta(ks) is an
    Euler-Maclaurin evaluation, whose remainder bound is at most 1.3e-23;
    EvalResult.fsum adds the terms and the tail as EvalResult(0.0, bound).
    """
    if not s > 1.0:
        raise ValueError(f"prime_zeta needs s > 1, got {s}")
    _check_tol(tol)

    k_stop = 1
    while (k_stop + 1) * s <= 60.0 and _pz_tail_bound(k_stop, s) > tol / 2.0:
        k_stop += 1

    mu = _mobius_small()
    terms = [mu[k] / k * _euler_maclaurin(k * s).log() for k in range(1, k_stop + 1) if mu[k]]
    return EvalResult.fsum(terms + [EvalResult(0.0, _pz_tail_bound(k_stop, s))])


def claim_lhs(s: float) -> EvalResult:
    """Left side of the identity under test: 2/zeta(s)."""
    return _euler_maclaurin(s).over(2.0)


def claim_rhs(s: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Right side of the identity under test: 2 - 2P(s) + P(s)^2 - P(2s).

    P(s) and P(2s), each first to tol/8, go through dirichlet.rhs_form's
    EvalResult operators.  Near the pole 2|P(s)| can carry the sum past tol;
    there both are evaluated again to tol/(4 + 2|P(s)|), which keeps the
    bound within tol, or PrecisionError if that is under MIN_TOL.
    """
    _check_tol(tol, 8.0 * MIN_TOL)
    p = prime_zeta(s, tol / 8.0)
    rhs = rhs_form(p, prime_zeta(2.0 * s, tol / 8.0))
    if rhs.error_bound > tol:
        split = tol / (4.0 + 2.0 * abs(p.value))
        if split < MIN_TOL:
            raise PrecisionError(f"tol {tol} at s={s} needs P(s) to {split:.3g}, "
                                 f"below working-precision floor {MIN_TOL}")
        rhs = rhs_form(prime_zeta(s, split), prime_zeta(2.0 * s, split))
    return rhs


class ProbeRow(namedtuple("ProbeRow", "eps lhs rhs note", defaults=("",))):
    """One singularity-probe sample at s = 1 + eps.

    lhs/rhs are EvalResults, or None when the row failed (note holds the
    reason); note is also set, with values kept, when an error bound
    overtakes the value it bounds.
    """

    __slots__ = ()


def _probe_grid_fault(epsilons: list[float]) -> str | None:
    # why an eps grid is refused, without its subject, or None if it is not
    for eps in epsilons:
        if not 0.0 < eps <= 0.5:
            return f"must lie in (0, 0.5], got {eps}"
        if not 1.0 + eps > 1.0:
            return f"{eps} is at most half the double spacing at 1, so 1 + eps rounds to 1"
    descending = all(a > b for a, b in zip(epsilons, epsilons[1:]))
    return None if descending else "grid must be strictly descending"


def singularity_probe(epsilons: list[float], tol: float = DEFAULT_TOL) -> list[ProbeRow]:
    """Evaluate both sides at s = 1 + eps along a descending eps grid.

    Each row calls claim_lhs and claim_rhs, whose zeta core sums the
    same 20 terms at every eps; a row whose eps is below 5e-7 gets that
    core's PrecisionError as its note instead of raising, so one bad row
    does not spoil the table.
    Expected behavior (asserted by callers, not here): lhs ~ 2*eps
    decreases to 0, rhs grows like a quadratic in log(eps).
    """
    eps_list = list(epsilons)
    if not eps_list:
        raise ValueError("empty epsilon grid")
    fault = _probe_grid_fault(eps_list)
    if fault:
        raise ValueError("probe eps " + fault)

    rows = []
    for eps in eps_list:
        s = 1.0 + eps
        try:
            lhs = claim_lhs(s)
            rhs = claim_rhs(s, tol)
        except PrecisionError as exc:
            rows.append(ProbeRow(eps=eps, lhs=None, rhs=None, note=str(exc)))
            continue
        note = ""
        if lhs.error_bound > abs(lhs.value) or rhs.error_bound > abs(rhs.value):
            note = "error bound exceeds value magnitude"
        rows.append(ProbeRow(eps=eps, lhs=lhs, rhs=rhs, note=note))
    return rows


class FitResult(namedtuple("FitResult", "leading linear constant rel_residual")):
    """rhs ~ leading (log eps)^2 + linear log eps + constant, and the relative residual."""

    __slots__ = ()


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def fit_log_quadratic(rows: list[ProbeRow]) -> FitResult:
    """Least-squares fit of rhs against (log eps)^2, log eps, 1.

    Probes the claimed a*(log(s-1))^2 + b*log(s-1) + O(1) blow-up shape;
    a divergent-but-logarithmic rhs shows up as a positive leading
    coefficient with a small relative residual.  Failed rows are
    skipped; fewer than three good rows is a domain error.

    The normal equations are solved exactly: every log eps and rhs
    double converts to a Fraction without error, Cramer's rule solves
    the 3x3 Gram system, and each coefficient is rounded once, so the
    fit is the correctly rounded least-squares solution for the data.
    """
    good = [(r.eps, r.rhs.value) for r in rows if r.rhs is not None]
    if len(good) < 3:
        raise ValueError(f"need >= 3 successful probe rows to fit, got {len(good)}")
    from fractions import Fraction

    xs = [Fraction(log(e)) for e, _ in good]
    ys = [Fraction(v) for _, v in good]
    powers = [sum(x**k for x in xs) for k in range(5)]
    moments = [sum(x**k * y for x, y in zip(xs, ys)) for k in range(3)]
    # rows and columns ordered (x^2, x, 1): gram[i][j] = sum x^(4-i-j)
    gram = [[powers[4 - i - j] for j in range(3)] for i in range(3)]
    target = moments[::-1]
    det = _det3(gram)
    if det == 0:
        raise ValueError("probe eps values do not determine a quadratic fit")
    coef = [
        _det3([[target[i] if j == col else gram[i][j] for j in range(3)] for i in range(3)])
        / det
        for col in range(3)
    ]
    residual = sum((coef[0] * x * x + coef[1] * x + coef[2] - y) ** 2 for x, y in zip(xs, ys))
    return FitResult(
        leading=float(coef[0]),
        linear=float(coef[1]),
        constant=float(coef[2]),
        rel_residual=math.sqrt(residual / sum(y * y for y in ys)),
    )
