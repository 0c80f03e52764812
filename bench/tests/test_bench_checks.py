"""Tests of the benchmark itself: its checker, generator and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from oracle import Arithmetic, Oracle, cyclotomic_coefficients, parse_output  # noqa: E402
from run import tail_latency  # noqa: E402
from workloads import WORKLOADS, _stratified, plan  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return Oracle(limit=5000)


def pzcheck_output(*args) -> str:
    from pzcheck.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


# -- the checker counts tampered reports as failures ----------------------


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_untampered_symbolic_report_passes(oracle, fmt):
    text = pzcheck_output("check", "claim2_3", "--max-n", "200", "--format", fmt)
    assert oracle.check("symbolic", {"max_n": 200}, 0, text).ok


@pytest.mark.parametrize(
    "fmt, original, tampered",
    [
        ("text", "index=30", "index=31"),
        ("structured", '"index": 30', '"index": 31'),
        ("text", "verdict : REFUTED", "verdict : CONSISTENT"),
        ("structured", '"verdict": "REFUTED"', '"verdict": "CONSISTENT"'),
        ("text", "mismatch_count=19", "mismatch_count=18"),
    ],
)
def test_tampered_symbolic_report_fails(oracle, fmt, original, tampered):
    text = pzcheck_output("check", "claim2_3", "--max-n", "200", "--format", fmt)
    assert original in text
    found = oracle.check("symbolic", {"max_n": 200}, 0, text.replace(original, tampered))
    assert not found.ok and found.reason


def test_tampered_numeric_value_fails(oracle):
    text = pzcheck_output("table", "zeta", "--s", "2", "--format", "structured")
    params = {"s": [2.0], "tol": 1e-12}
    assert oracle.check("zeta", params, 0, text).ok
    table = json.loads(text)
    table["rows"][0]["value"] *= 1 + 1e-8
    assert not oracle.check("zeta", params, 0, json.dumps(table)).ok


def test_nonzero_exit_and_garbage_fail(oracle):
    assert not oracle.check("symbolic", {"max_n": 200}, 2, "").ok
    assert not oracle.check("symbolic", {"max_n": 200}, 0, "no report here").ok


def test_short_symbolic_scan_is_consistent(oracle):
    text = pzcheck_output("check", "claim2_3", "--max-n", "29")
    assert oracle.check("symbolic", {"max_n": 29}, 0, text).ok


def test_text_and_structured_parse_alike():
    args = ("check", "claim4", "--s", "2.5", "--depth", "12", "--format")
    text = parse_output(pzcheck_output(*args, "text"))
    structured = parse_output(pzcheck_output(*args, "structured"))
    assert text["verdict"] == structured["verdict"]
    # text output cannot tell the string "-2" from the number -2
    assert [{k: str(v) if isinstance(s[k], str) else v for k, v in t.items()}
            for t, s in zip(text["evidence"], structured["evidence"])] == structured["evidence"]


# -- independent references -----------------------------------------------


def test_phi_105_coefficients(oracle):
    c = cyclotomic_coefficients(105, 48, oracle.arith)
    assert (c[7], c[41], max(abs(c))) == (-2, -2, 2)


def test_heights_match_direct_construction(oracle):
    from pzcheck.cyclotomic import cyclotomic

    for n in range(1, 400):
        assert oracle.height(n) == max(abs(c) for c in cyclotomic(n).coeffs), n


def test_mismatch_count_is_squarefree_three_prime_count():
    arith = Arithmetic(1000)

    def omega_sqfree(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        return len(primes), math.prod(primes) == n

    brute = sum(1 for n in range(1, 1001)
                if omega_sqfree(n)[0] >= 3 and omega_sqfree(n)[1])
    assert arith.squarefree_three_primes_upto(1000) == brute
    assert arith.squarefree_three_primes_upto(30) == 1


# -- the generator ----------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_is_deterministic_per_seed(workload):
    first = plan(workload, 7, 18)
    assert first == plan(workload, 7, 18)
    assert first != plan(workload, 8, 18)


def test_stratified_total_hardly_depends_on_seed():
    totals = [sum(_stratified(random.Random(seed), 20_000, 50_000, 6)) for seed in range(20)]
    assert max(totals) - min(totals) < 0.015 * min(totals)
    assert len(set(totals)) == len(totals)


def _spacing_bound(inv) -> float:
    """Double spacing at an upper bound of the values the input reports.

    zeta(1+d) < 1/d + 1 and P(s) < log zeta(s); a zeta table reports
    zeta, the claim checks and probes report 2/zeta < 2 and
    |2 - 2P + P^2 - P(2s)| < 3 + 2P + P^2.
    """
    s_values = inv.params["s"] if "s" in inv.params else [1.0 + e for e in inv.params["eps"]]
    if not isinstance(s_values, list):
        s_values = [s_values]
    worst = 0.0
    for s in s_values:
        zeta = 1.0 / (s - 1.0) + 1.0
        p = math.log(zeta)
        worst = max(worst, zeta if inv.kind == "zeta" else 3.0 + 2.0 * p + p * p)
    return math.ulp(worst)


@pytest.mark.parametrize("seed", range(6))
def test_near_pole_tolerances_clear_double_spacing(seed):
    near_pole = ("numeric", "zeta", "probe-table")
    for inv in [i for i in plan("compute", seed, 44) if i.kind in near_pole]:
        tol = inv.params.get("tol", 1e-12)
        assert tol >= _spacing_bound(inv), inv.label()


# -- metrics and tracing ----------------------------------------------------


def test_tail_latency_leaves_ten_samples_above():
    values = [float(i) for i in range(60)]
    assert tail_latency(values) == (49.0, "p83.3 of 60")
    assert tail_latency(values[:5]) == (4.0, "max of 5")


def test_traced_child_wraps_every_binding_site():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_child.py"), "check", "migotti_remark",
         "--max-n", "40", "--format", "structured"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "CONSISTENT"
    record = json.loads(proc.stderr.splitlines()[-1])
    for site in ("pzcheck.radical.prime_zeta", "pzcheck.radical._euler_maclaurin",
                 "pzcheck.cli.cyclotomic_poly", "pzcheck.cli.cyclotomic_height",
                 "pzcheck.cyclotomic.cyclotomic", "pzcheck.zeta._euler_maclaurin"):
        assert site in record["patched"]
    names = [span[0] for span in record["spans"]]
    assert names[0] == "cli.main"
    assert "cyclotomic.height" in names and "cyclotomic.cyclotomic" in names
    hits, misses = record["cache"]["cyclotomic.cyclotomic"]
    assert misses > 0 and hits > 0
