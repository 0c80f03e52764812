"""Acceptance suite: the eight go/no-go checks for this package.

Each test prints exactly one verdict line (visible with pytest -s, or in
the captured output on failure) and then asserts it.  Runtime limits
apply where stated: criterion 1 under 1 s, criterion 2 under 5 s,
criteria 3 and 6 under 10 s, measured cold in collection order because
this file sorts first.
"""

import random
import time

from conftest import prime_zeta_direct, tail_fixed_point
from pzcheck import (
    claim4_check,
    claim_lhs,
    claim_lhs_series,
    claim_rhs,
    claim_rhs_series,
    convergence_report,
    convolve,
    eval_nested,
    factorize,
    fit_log_quadratic,
    invert,
    mobius,
    prime_zeta,
    singularity_probe,
    sieve,
    unit_series,
    zeta_series,
)
from pzcheck.cyclotomic import cyclotomic
from pzcheck.dirichlet import DirichletSeries


def _verdict(num, label, checks, elapsed=None):
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"acceptance {num} | {label}: {status}{suffix}")
    assert not failed, f"criterion {num} failed sub-checks: {failed}"


def test_acceptance_1_symbolic_refutation():
    start = time.perf_counter()
    table = sieve(100)
    lhs, rhs = claim_lhs_series(100), claim_rhs_series(100, table)
    d = lhs - rhs
    m = next(n for n in range(1, 101) if d[n])
    hit = (m, lhs[m], rhs[m])
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "exact coefficient mismatch at n=30",
        {
            "mismatch_is_30_-2_0": hit == (30, -2, 0),
            "runtime_under_1s": elapsed < 1.0,
        },
        elapsed,
    )


def test_acceptance_2_numeric_refutation():
    start = time.perf_counter()
    lhs = claim_lhs(2.0)
    rhs = claim_rhs(2.0)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "numeric gap at s=2",
        {
            "lhs_matches_7_decimals": abs(lhs.value - 1.2158542) < 5e-8,
            "rhs_matches_7_decimals": abs(rhs.value - 1.2230397) < 5e-8,
            "gap_exceeds_0.007": abs(lhs.value - rhs.value) > 0.007,
            "runtime_under_5s": elapsed < 5.0,
        },
        elapsed,
    )


def test_acceptance_3_prime_zeta_cross_validation():
    start = time.perf_counter()
    series = prime_zeta(2.0)
    direct = prime_zeta_direct(2.0, 10**6)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "two prime-zeta routes agree",
        {
            "within_combined_bounds": abs(series.value - direct.value)
            <= series.error_bound + direct.error_bound,
            "rounds_to_0.4522": f"{series.value:.4f}" == "0.4522",
            "runtime_under_10s": elapsed < 10.0,
        },
        elapsed,
    )


def test_acceptance_4_radical_refutation():
    result = claim4_check(2.0, 12)
    combined = result.radical_value.error_bound + result.prime_zeta_value.error_bound
    gap = abs(result.prime_zeta_value.value - result.radical_value.value)
    _verdict(
        4,
        "radical value vs prime zeta at s=2",
        {
            "radical_rounds_to_0.4588": f"{result.radical_value.value:.4f}" == "0.4588",
            "gap_exceeds_10x_bounds": gap > 10.0 * combined,
        },
    )


def test_acceptance_5_tail_acceleration():
    rows = convergence_report(2.0, 25)
    gaps = {n: (gz, go) for n, gz, go in rows}
    accelerated_wins = all(gaps[n][1] <= gaps[n][0] for n in range(2, 16))
    f_zero_deep = eval_nested(2.0, 40, 0.0).value
    f_one_deep = eval_nested(2.0, 40, 1.0).value
    fp = tail_fixed_point()
    _verdict(
        5,
        "tail acceleration dominates and limits agree",
        {
            "one_tail_no_worse_for_n_2_to_15": accelerated_wins,
            "limits_agree_1e-10": abs(f_zero_deep - f_one_deep) < 1e-10,
            "fixed_point_is_1_within_1e-12": abs(fp - 1.0) < 1e-12,
        },
    )


def test_acceptance_6_cyclotomic_remark():
    start = time.perf_counter()
    phi105 = cyclotomic(105)
    coefficients_ok = phi105.coefficient(7) == -2 and phi105.coefficient(41) == -2

    table = sieve(200)
    heights_ok = True
    for n in range(1, 201):
        odd_omega = sum(1 for p, _ in factorize(n, table).factors if p != 2)
        if odd_omega <= 2:
            if max(abs(c) for c in cyclotomic(n).coeffs) != 1:
                heights_ok = False
                break

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    product_ok = True
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, list(cyclotomic(d).coeffs))
        if prod != [-1] + [0] * (n - 1) + [1]:
            product_ok = False
            break
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "cyclotomic coefficients and divisor products",
        {
            "phi105_has_-2_at_7_and_41": coefficients_ok,
            "heights_one_when_odd_part_small": heights_ok,
            "divisor_product_exact_to_200": product_ok,
            "runtime_under_10s": elapsed < 10.0,
        },
        elapsed,
    )


def test_acceptance_7_algebra_properties():
    n = 10**4
    table = sieve(n)
    inv = invert(zeta_series(n))
    mobius_ok = all(
        inv[m] == mobius(factorize(m, table)) for m in range(1, n + 1)
    )

    rng = random.Random(20260814)
    delta = unit_series(200)
    roundtrip_ok = True
    for _ in range(50):
        coeffs = [rng.randint(-3, 3) for _ in range(200)]
        coeffs[0] = rng.choice((1, -1))
        a = DirichletSeries(coeffs)
        if convolve(a, invert(a)) != delta:
            roundtrip_ok = False
            break
    _verdict(
        7,
        "inversion is exact",
        {
            "zeta_inverse_is_mobius_to_1e4": mobius_ok,
            "fifty_random_roundtrips": roundtrip_ok,
        },
    )


def test_acceptance_8_singularity_probe():
    rows = singularity_probe([1e-2, 1e-3, 1e-4, 1e-5])
    lhs_vals = [r.lhs.value for r in rows]
    rhs_vals = [r.rhs.value for r in rows]
    fit = fit_log_quadratic(rows)
    _verdict(
        8,
        "near-pole divergence shape",
        {
            "all_rows_evaluated": all(r.lhs is not None for r in rows),
            "lhs_decreases_toward_0": all(
                a > b > 0.0 for a, b in zip(lhs_vals, lhs_vals[1:])
            ),
            "rhs_increases": all(a < b for a, b in zip(rhs_vals, rhs_vals[1:])),
            "fit_leading_positive": fit.leading > 0.0,
            "fit_residual_under_10pct": fit.rel_residual < 0.1,
        },
    )
