"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms:
trial division instead of sieves, a Bernoulli recurrence for the
Euler-Maclaurin coefficients and Euler's closed form, direct summation
over primes instead of the Mobius log-zeta series for P(s), iteration
for the radical tail's fixed point, and schoolbook convolution instead
of the divisor-loop version.  Expected values in the tests come from
these, from hand computation, or from published reference digits —
never from the code under test.
"""

import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum
from pathlib import Path

import pytest

sys.dont_write_bytecode = True  # a test run leaves no bytecode in src/ to skew a later timing
from pzcheck import EvalResult, primes_upto, sieve

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Interpreters the tests start import pzcheck from this checkout's src
    and, like this one, write no bytecode there."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        patch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        yield


@pytest.fixture(scope="session")
def table_1e4():
    return sieve(10**4)


@pytest.fixture(scope="session")
def table_1e5():
    return sieve(10**5)


@pytest.fixture(scope="session")
def table_200():
    return sieve(200)


def naive_primes(limit):
    """Trial-division primes <= limit."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def naive_factor(n):
    """Trial-division factorization as a list of (p, e)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def naive_mobius(n):
    factors = naive_factor(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def naive_totient(n):
    t = n
    for p, _ in naive_factor(n):
        t -= t // p
    return t


def naive_convolve(a, b):
    """Schoolbook Dirichlet convolution of two coefficient lists
    (index 0 = a_1), using the d*e = n double loop."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n // i + 1):
            if i * j <= n:
                out[i * j - 1] += a[i - 1] * b[j - 1]
    return out


def oracle_bernoulli(m):
    """Exact B_m by B_r = 1 - sum_{k<r} C(r,k) B_k / (r - k + 1).

    This recurrence gives B_1 = +1/2; every other index agrees with the
    B_1 = -1/2 convention.
    """
    values = []
    for r in range(m + 1):
        acc = Fraction(1)
        for k in range(r):
            acc -= comb(r, k) * values[k] / (r - k + 1)
        values.append(acc)
    return values[m]


@lru_cache(maxsize=4)
def _prime_list(limit: int) -> tuple[int, ...]:
    return primes_upto(limit)


def prime_zeta_direct(s: float, prime_limit: int) -> EvalResult:
    """P(s) by direct summation over primes up to prime_limit.

    Tail bound: the primes above the limit are a subset of the integers,
    so sum_{p > L} p^{-s} <= integral_L^inf x^{-s} dx = L^{1-s}/(s-1).
    Deliberately independent of prime_zeta's series route — this is the
    cross-validation oracle, so it shares no truncation logic with it.
    """
    if not s > 1.0:
        raise ValueError(f"prime_zeta_direct needs s > 1, got {s}")
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    value = fsum(p ** -s for p in _prime_list(prime_limit))
    return EvalResult(
        value=value, error_bound=float(prime_limit) ** (1.0 - s) / (s - 1.0)
    )


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
