"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms:
trial division instead of sieves, a different Bernoulli recurrence,
schoolbook convolution instead of the divisor-loop version.  Expected
values in the tests come from these, from hand computation, or from
published reference digits — never from the code under test.
"""

import os
from pathlib import Path

import pytest

from pzcheck import sieve

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Interpreters the tests start import pzcheck from this checkout's src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
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
