"""cli: claim pipelines, the report contract of pzcheck.report, tables, exit codes."""

import argparse
import ast
import bisect
import contextlib
import inspect
import io
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
import types

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import naive_factor, naive_mobius, naive_primes, naive_totient
from pzcheck import (DirichletSeries, arith, claim_lhs_series, claim_rhs_series, cli, report,
                     sieve, zeta)
from pzcheck.cli import UsageError, _mismatch_scan, cmd_check, cmd_table, main
from pzcheck.report import ClaimReport, emit_report, parse_report, verdict_of
from test_golden import _structured_stdouts


def _facts(report, name):
    return [f for f in report.evidence if f["name"] == name]


# -- check pipelines -----------------------------------------------------


def test_symbolic_check_refutes_with_exact_mismatch():
    report = cmd_check("claim2_3", None, {})  # symbolic is the default mode
    assert report.mode == "SYMBOLIC"
    assert report.verdict == "REFUTED"
    (hit,) = _facts(report, "first_mismatch")
    assert hit["index"] == 30
    assert hit["lhs_coefficient"] == "-2"
    assert hit["rhs_coefficient"] == "0"
    assert hit["exact"] is True
    (scan,) = _facts(report, "mismatch_scan")
    assert scan["truncation"] == 10**4
    assert scan["all_mismatches_have_three_distinct_primes"] is True
    assert scan["mismatch_count"] > 100


def test_symbolic_check_below_first_mismatch_is_consistent():
    report = cmd_check("claim2_3", "symbolic", {"max_n": 20})
    assert report.verdict == "CONSISTENT"
    (fact,) = _facts(report, "coefficient_agreement")
    assert fact["exact"] is True and fact["truncation"] == 20


def test_numeric_check_at_default_point():
    report = cmd_check("claim2_3", "numeric", {})
    assert report.verdict == "REFUTED"
    (lhs,) = _facts(report, "lhs")
    (rhs,) = _facts(report, "rhs")
    assert lhs["value"] == pytest.approx(1.2158542, abs=5e-8)
    assert rhs["value"] == pytest.approx(1.2230397, abs=5e-8)
    (diff,) = _facts(report, "difference")
    assert diff["value"] > 0.007
    assert diff["exceeds_bound"] is True
    assert diff["value"] > 100 * diff["combined_error_bound"]


def test_numeric_check_goes_inconclusive_when_gap_sinks():
    report = cmd_check("claim2_3", "numeric", {"s": 50.0})
    assert report.verdict == "INCONCLUSIVE"
    (diff,) = _facts(report, "difference")
    assert diff["exceeds_bound"] is False
    assert _facts(report, "reason")


def test_numeric_check_degrades_on_precision_failure():
    report = cmd_check("claim2_3", "numeric", {"tol": 1e-16})
    assert report.verdict == "INCONCLUSIVE"
    (reason,) = _facts(report, "reason")
    assert reason["detail"]


def test_probe_check_shape():
    report = cmd_check("claim2_3", "probe", {})
    assert report.verdict == "REFUTED"
    rows = _facts(report, "probe_row")
    assert len(rows) == 4
    (mono,) = _facts(report, "monotonicity")
    assert mono["lhs_decreasing_to_zero"] is True
    assert mono["rhs_increasing"] is True
    (fit,) = _facts(report, "log_quadratic_fit")
    assert fit["leading"] > 0.0
    assert fit["relative_residual"] < 0.1
    (div,) = _facts(report, "divergence")
    assert div["exceeds_bound"] is True


def test_probe_check_refuses_a_wrong_fit_shape(monkeypatch):
    # a fit that does not open upward fails the shape checks, whatever
    # the divergence says, and the report keeps that divergence
    monkeypatch.setattr(zeta, "fit_log_quadratic", lambda rows: zeta.FitResult(-1.0, 0.0, 0.0, 0.0))
    report = cmd_check("claim2_3", "probe", {})
    assert report.verdict == "INCONCLUSIVE"
    assert report.evidence[-1] == {"name": "reason", "detail": "probe shape checks failed"}
    (div,) = _facts(report, "divergence")
    assert div["exceeds_bound"] is True
    assert parse_report(emit_report(report, "structured")) == report


def test_probe_check_names_a_divergence_within_its_bound(monkeypatch):
    # the real rows pass every shape check, but with the last rhs bound as
    # wide as its value the divergence is within its bound, and the reason
    # says so rather than blaming the shape
    real = zeta.singularity_probe

    def probe(epsilons, tol):
        *rows, last = real(epsilons, tol)
        wide = last.rhs._replace(error_bound=last.rhs.value)
        return [*rows, last._replace(rhs=wide)]

    monkeypatch.setattr(zeta, "singularity_probe", probe)
    report = cmd_check("claim2_3", "probe", {})
    assert report.verdict == "INCONCLUSIVE"
    (mono,) = _facts(report, "monotonicity")
    assert mono["lhs_decreasing_to_zero"] is True and mono["rhs_increasing"] is True
    (fit,) = _facts(report, "log_quadratic_fit")
    assert fit["leading"] > 0.0 and fit["relative_residual"] < 0.1
    (div,) = _facts(report, "divergence")
    assert div["exceeds_bound"] is False
    assert report.evidence[-1] == {"name": "reason",
                                   "detail": "divergence within combined error bounds"}
    assert parse_report(emit_report(report, "structured")) == report


def test_claim4_check_pipeline():
    report = cmd_check("claim4", None, {"depth": 12})
    assert report.mode == "NUMERIC"
    assert report.verdict == "REFUTED"
    (rad,) = _facts(report, "radical_side")
    assert rad["value"] == pytest.approx(0.4588, abs=5e-5)
    assert rad["depth"] == 12
    (gap,) = _facts(report, "gap")
    assert gap["exceeds_bound"] is True
    (sq,) = _facts(report, "squared_form_equals_claim_form")
    assert sq["equal"] is True
    (sm,) = _facts(report, "series_mismatch")
    assert sm["index"] == 30 and sm["exact"] is True


def test_migotti_check_pipeline():
    report = cmd_check("migotti_remark", None, {})
    assert report.mode == "SYMBOLIC"
    assert report.verdict == "CONSISTENT"
    (phi,) = _facts(report, "phi_105_coefficients")
    assert phi["degree_7"] == -2
    assert phi["degree_41"] == -2
    assert phi["height"] == 2
    (bound,) = _facts(report, "migotti_bound")
    assert bound["scan_limit"] == 200
    assert bound["eligible_count"] == 197
    assert bound["all_heights_one"] is True


@pytest.mark.parametrize("limit", [1, 2, 104, 105, 106, 3217])
def test_migotti_eligible_count_against_trial_division(limit):
    # eligible n have at most two distinct odd primes; 105 = 3 * 5 * 7 is
    # the first n that is not
    naive = sum(sum(p != 2 for p, _ in naive_factor(n)) <= 2 for n in range(1, limit + 1))
    (bound,) = _facts(cmd_check("migotti_remark", None, {"max_n": limit}), "migotti_bound")
    assert bound["eligible_count"] == naive


def test_migotti_cross_check_refuses_a_wrong_phi_105_height(monkeypatch):
    real = cli.cyclotomic_height
    monkeypatch.setattr(cli, "cyclotomic_height", lambda n: 3 if n == 105 else real(n))
    with pytest.raises(ArithmeticError, match="packed height 3 of Phi_105"):
        cmd_check("migotti_remark", None, {})


def test_migotti_counterexample_refutes(monkeypatch):
    # a height above 1 at one eligible n refutes the remark, naming that n
    real = cli.cyclotomic_height
    monkeypatch.setattr(cli, "cyclotomic_height", lambda n: 2 if n == 15 else real(n))
    report = cmd_check("migotti_remark", None, {})
    assert report.verdict == "REFUTED"
    (bound,) = _facts(report, "migotti_bound")
    assert bound["all_heights_one"] is False
    (violations,) = _facts(report, "violations")
    assert violations["indices"] == [15]
    assert parse_report(emit_report(report, "structured")) == report


def test_migotti_refutes_on_a_phi_105_coefficient_other_than_minus_two(monkeypatch):
    # c_7 = -1 with c_41 = -2 keeps the height 2, so the cross-check passes
    # and the coefficient alone refutes the remark
    real = cli.cyclotomic_poly

    def phi(n):
        poly = real(n)
        return type(poly)(poly.coeffs[:7] + (-1,) + poly.coeffs[8:]) if n == 105 else poly

    monkeypatch.setattr(cli, "cyclotomic_poly", phi)
    report = cmd_check("migotti_remark", None, {})
    assert report.verdict == "REFUTED"
    (phi_105,) = _facts(report, "phi_105_coefficients")
    assert (phi_105["degree_7"], phi_105["degree_41"], phi_105["height"]) == (-1, -2, 2)
    (bound,) = _facts(report, "migotti_bound")
    assert bound["all_heights_one"] is True
    assert parse_report(emit_report(report, "structured")) == report


def test_migotti_and_height_table_walk_cyclotomics_sieve(monkeypatch):
    # the Migotti scan walks the 10^4 table the cyclotomic module already
    # holds, and the height table reads it through arith.factorize
    def no_sieve(limit):
        raise AssertionError(f"arith.sieve({limit}) called")

    monkeypatch.setattr(arith, "sieve", no_sieve)
    report = cmd_check("migotti_remark", None, {"max_n": 300})
    assert report.verdict == "CONSISTENT"
    out = cmd_table("cyclotomic-height", {"n": "1..300", "format": "structured"})
    assert [row["n"] for row in json.loads(out)["rows"]] == list(range(1, 301))


def test_negative_radicand_is_an_inconclusive_finding(capsys):
    report = cmd_check("claim4", None, {"s": 1.3})
    assert report.verdict == "INCONCLUSIVE"
    (fact,) = report.evidence
    assert fact["name"] == "negative_radicand"
    assert fact["level"] == 1
    assert fact["radicand"] == pytest.approx(-0.2415416, abs=1e-7)
    assert main(["check", "claim4", "--s", "1.3"]) == 0
    assert "verdict : INCONCLUSIVE" in capsys.readouterr().out


def test_check_rejects_bad_combinations():
    with pytest.raises(UsageError):
        cmd_check("claim4", "symbolic", {})
    with pytest.raises(UsageError):
        cmd_check("claim4", "probe", {})
    with pytest.raises(UsageError):
        cmd_check("migotti_remark", "numeric", {})
    with pytest.raises(UsageError, match=r"^unknown claim 'CLAIM9'$"):
        cmd_check("claim9", None, {})
    with pytest.raises(UsageError, match=r"^--max-n must be <= 10000 \(cyclotomic domain\)"):
        cmd_check("migotti_remark", None, {"max_n": 10**5})
    with pytest.raises(UsageError, match="^--max-n must be >= 1, got 0$"):
        cmd_check("claim2_3", "symbolic", {"max_n": 0})
    with pytest.raises(UsageError, match=r"^--max-n must be <= 1000000 \(exact series work\)"):
        cmd_check("claim2_3", "symbolic", {"max_n": 10**6 + 1})
    # a library caller's float count is refused, not truncated or overflowed
    for options in ({"max_n": 20.5}, {"max_n": math.inf}, {"depth": 2.5}):
        with pytest.raises(UsageError, match="^--(max-n|depth) invalid literal for int"):
            cmd_check("claim2_3" if "max_n" in options else "claim4", None, options)
    with pytest.raises(UsageError):
        cmd_check("claim2_3", "numeric", {"s": 1.0})
    # an option the pipeline does not use is an error, not an echo
    for claim, mode, options in (("claim2_3", "numeric", {"max_n": 5_000_000}),
                                 ("claim2_3", "probe", {"s": 3.0}),
                                 ("claim2_3", "symbolic", {"depth": 5}),
                                 ("claim4", None, {"max_n": 100}),
                                 ("migotti_remark", None, {"tol": 1e-9})):
        with pytest.raises(UsageError, match="does not use"):
            cmd_check(claim, mode, options)


def test_non_finite_options_are_usage_errors():
    for claim, mode, options in (("claim2_3", "probe", {"tol": math.inf}),
                                 ("claim2_3", "numeric", {"s": math.inf}),
                                 ("claim4", None, {"tol": math.nan})):
        with pytest.raises(UsageError, match="^--(s|tol) must be finite"):
            cmd_check(claim, mode, options)
    # the largest double is finite, but rounded to 15 digits as reported it is not
    big = 1.7976931348623157e308
    rounds = "rounds to infinity at 15 significant digits, got " + re.escape(repr(big)) + "$"
    for claim, mode, options in (("claim2_3", "numeric", {"s": big}),
                                 ("claim2_3", "numeric", {"tol": big}),
                                 ("claim4", None, {"s": big})):
        with pytest.raises(UsageError, match=f"^--(s|tol) {rounds}"):
            cmd_check(claim, mode, options)
    with pytest.raises(UsageError, match=f"^--s {rounds}"):
        cmd_table("zeta", {"s": f"2,{big!r}"})
    for selector, options in (("zeta", {"tol": math.inf}), ("probe", {"tol": -math.inf}),
                              ("prime-zeta", {"s": "2,inf"}), ("radical-domain", {"s": "nan"}),
                              ("probe", {"eps": "inf..1e-5"})):
        with pytest.raises(UsageError, match=r"finite|^--eps range 'inf\.\.1e-5' must run from"):
            cmd_table(selector, options)


_OUT_OF_DOMAIN = {"s": (1.0, 0.5, -3.0), "tol": (0.0, -1.0), "depth": (0, 65),
                  "n": ("0..3", "9999..10001"), "eps": ("0.9", "1e-3,1e-2", "1e-16")}


@pytest.mark.parametrize("command,target,mode,key,value", [
    (command, target, mode, key, value)
    for command, entries in (
        ("check", [(claim, mode, defaults)
                   for (claim, mode), (_, defaults) in cli._PIPELINES.items()]),
        ("table", [(selector, None, defaults) for selector, (_, defaults) in cli._TABLES.items()]),
    )
    for target, mode, defaults in entries
    for key, values in _OUT_OF_DOMAIN.items() if key in defaults
    for value in values
])
def test_out_of_domain_s_and_tol_name_the_flag(command, target, mode, key, value):
    # s <= 1, tol <= 0, a depth or an n outside the library's range and
    # an eps grid the probe refuses are usage errors that name the flag,
    # on every check and table that reads it
    with pytest.raises(UsageError) as info:
        if command == "check":
            cmd_check(target, mode, {key: value})
        else:
            cmd_table(target, {key: str(value) if key == "s" else value})
    assert str(info.value).startswith(f"--{key} ")


# each eps grid the probe refuses, and its reason without a subject
_PROBE_GRID_REFUSALS = [
    ("1e-3,1e-2", "grid must be strictly descending"),
    ("0.9", "must lie in (0, 0.5], got 0.9"),
    ("1e-16", "1e-16 is at most half the double spacing at 1, so 1 + eps rounds to 1"),
]


@pytest.mark.parametrize("eps,reason", _PROBE_GRID_REFUSALS)
def test_the_probe_grid_rule_refuses_alike_in_converter_and_library(eps, reason):
    # one rule in zeta: the --eps converter names its flag, the library
    # its own subject
    with pytest.raises(UsageError) as info:
        cmd_table("probe", {"eps": eps})
    assert str(info.value) == "--eps " + reason
    with pytest.raises(ValueError) as info:
        zeta.singularity_probe([float(e) for e in eps.split(",")])
    assert str(info.value) == "probe eps " + reason


@pytest.mark.parametrize("command,target", [("check", "claim4"), ("table", "zeta")])
def test_a_value_error_past_the_converters_propagates_as_a_bug(command, target, monkeypatch,
                                                                capsys):
    # only a converter's ValueError is bad input: one raised by a pipeline
    # or a table leaves cmd_check, cmd_table and main as itself, with no
    # usage error, exit status 2 or error line
    boom = ValueError("boom")

    def fail(params):
        raise boom

    if command == "check":
        entries, key, run = cli._PIPELINES, ("CLAIM4", "NUMERIC"), lambda: cmd_check(target, None, {})
    else:
        entries, key, run = cli._TABLES, target, lambda: cmd_table(target, {})
    monkeypatch.setitem(entries, key, (fail, entries[key][1]))
    for call in (run, lambda: main([command, target])):
        with pytest.raises(ValueError) as info:
            call()
        assert info.value is boom
    assert capsys.readouterr() == ("", "")


def test_an_internal_error_ends_in_a_traceback_and_status_one():
    # what the exit-status contract promises for a bug: Python's own exit
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         "import sys\n"
         "from pzcheck import cli\n"
         "def fail(params):\n"
         "    raise ValueError('boom')\n"
         "cli._TABLES['zeta'] = (fail, cli._TABLES['zeta'][1])\n"
         "sys.exit(cli.main(['table', 'zeta']))\n"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("ValueError: boom\n")
    assert "error:" not in proc.stderr


def test_only_a_converter_call_turns_a_value_error_into_a_usage_error():
    # read off cli.py: the one handler that catches ValueError, or anything
    # broader, is _used_options's around a single converter call
    broad = {"ValueError", "Exception", "BaseException"}
    catches = [
        (function.name, [ast.unparse(statement) for statement in node.body])
        for function in ast.parse(inspect.getsource(cli)).body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.Try)
        if any(handler.type is None or broad & {n.id for n in ast.walk(handler.type)
                                                if isinstance(n, ast.Name)}
               for handler in node.handlers)
    ]
    assert catches == [("_used_options",
                        ["used[key] = convert(default if value is None else value)"])]


def test_mismatch_scan_flag_needs_exactly_the_paper_set():
    # the flag holds only when the mismatches are precisely the
    # squarefree n <= N with at least three distinct primes
    flag = "all_mismatches_have_three_distinct_primes"
    table = sieve(200)
    lhs, rhs = claim_lhs_series(200), claim_rhs_series(200, table)

    def support(other):  # the indices of the nonzero coefficients of lhs - other
        d = lhs - other
        return [m for m in range(1, d.truncation + 1) if d[m]]

    assert _mismatch_scan(200, support(rhs), table)[flag] is True
    missing = rhs.coefficients()
    missing[30 - 1] = lhs[30]  # 30 = 2*3*5 no longer differs
    extra = rhs.coefficients()
    extra[60 - 1] += 1  # 60 = 2^2*3*5 has three primes but is not squarefree
    for coefficients in (missing, extra):
        scan = _mismatch_scan(200, support(DirichletSeries(coefficients)), table)
        assert scan[flag] is False


def _mismatch_count_closed_form(n, primes):
    # Q(n) - 1 - pi(n) - pi_2(n): the squarefree m <= n, less 1, the
    # primes and the products pq of primes p < q, which leaves the
    # squarefree m with three or more primes; Q(n) counts squarefree
    # m <= n as sum over d <= sqrt(n) of mu(d) * (n // d^2)
    squarefree = sum(naive_mobius(d) * (n // (d * d)) for d in range(1, math.isqrt(n) + 1))
    semiprimes = sum(bisect.bisect_right(primes, n // p) - i - 1
                     for i, p in enumerate(primes) if p * p <= n)
    return squarefree - 1 - len(primes) - semiprimes


@pytest.mark.parametrize("n, count", [(100, 5), (10**4, 2253), (21778, 5331), (48306, 12706)])
def test_mismatch_count_is_the_closed_form(n, count):
    report = cmd_check("claim2_3", "symbolic", {"max_n": n})
    (scan,) = _facts(report, "mismatch_scan")
    assert scan["mismatch_count"] == _mismatch_count_closed_form(n, naive_primes(n)) == count


def test_check_is_case_insensitive():
    report = cmd_check("Claim2_3", "Numeric", {"s": 3.0})
    assert report.claim_id == "CLAIM2_3"
    assert report.verdict == "REFUTED"


# -- report contract -----------------------------------------------------


def test_report_vocabulary_is_the_pipeline_registry():
    # report.CHECKS alone states the claims, their modes, their order and
    # each default; _PIPELINES holds one entry per check it lists, no other
    assert set(cli._PIPELINES) == {(c, m) for c, ms in report.CHECKS.items() for m in ms}


def test_cli_spells_claims_and_modes_only_in_the_pipeline_keys():
    # read off cli.py: a string that names a claim or a mode, in either case,
    # is one of _PIPELINES's (claim, mode) keys ("probe" also names a table)
    names = set(report.CHECKS).union(*report.CHECKS.values())
    tree = ast.parse(inspect.getsource(cli))
    (registry,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                   and list(map(ast.unparse, node.targets)) == ["_PIPELINES"]]
    keys = {id(name) for key in registry.keys for name in key.elts}
    spelled = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.upper() in names and node.value not in cli._TABLES
               and id(node) not in keys]
    assert len(keys) == 2 * len(cli._PIPELINES)
    assert spelled == []


def test_cli_builds_no_fact_a_verdict_rule_reads():
    # report builds every fact FACT_RULES or verdict_of reads, beside its rule;
    # read off cli.py: no dict display there names one
    read = {*report.FACT_RULES, "reason"}
    tree = ast.parse(inspect.getsource(cli))
    built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
             for key, value in zip(node.keys, node.values)
             if isinstance(key, ast.Constant) and key.value == "name"
             and isinstance(value, ast.Constant) and value.value in read]
    assert built == []


_REAL_CHECKS = {("CLAIM2_3", "SYMBOLIC"), ("CLAIM2_3", "NUMERIC"), ("CLAIM2_3", "PROBE"),
                ("CLAIM4", "NUMERIC"), ("MIGOTTI_REMARK", "SYMBOLIC")}


@pytest.mark.parametrize("mode", ["SYMBOLIC", "NUMERIC", "PROBE"])
@pytest.mark.parametrize("claim", ["CLAIM2_3", "CLAIM4", "MIGOTTI_REMARK"])
def test_every_path_builds_only_a_check_pzcheck_has(claim, mode):
    # the constructor, _replace, unpickling and parse_report accept the five
    # checks and refuse the four pairs no command produces; cmd_check has a
    # pipeline for the five and refuses the four alike, naming the claim's modes
    verdict = verdict_of(mode, [])
    payload = {"claim_id": claim, "mode": mode, "verdict": verdict,
               "parameters": {}, "evidence": []}
    forged = tuple.__new__(ClaimReport, payload.values())
    builds = [lambda: ClaimReport(claim, mode, verdict),
              lambda: ClaimReport("CLAIM2_3", mode, verdict)._replace(claim_id=claim),
              lambda: pickle.loads(pickle.dumps(forged)),
              lambda: parse_report(json.dumps(payload))]
    for build in builds:
        if (claim, mode) in _REAL_CHECKS:
            assert build() == forged
        else:
            with pytest.raises(ValueError, match=f"^no check of claim_id '{claim}' in mode"):
                build()
    if (claim, mode) in _REAL_CHECKS:
        assert (claim, mode) in cli._PIPELINES
    else:
        with pytest.raises(UsageError) as info:
            cmd_check(claim.lower(), mode.lower(), {})
        modes = "/".join(report.CHECKS[claim])
        assert str(info.value) == f"{claim} supports modes {modes}, not {mode}"


def test_structured_report_round_trips():
    report = cmd_check("claim2_3", "numeric", {})
    text = emit_report(report, "structured")
    again = parse_report(text)
    assert again._asdict() == report._asdict()
    # structured output is valid JSON with stable top-level keys
    payload = json.loads(text)
    assert list(payload) == ["claim_id", "mode", "verdict", "parameters", "evidence"]


def test_text_report_rendering():
    report = cmd_check("claim2_3", "symbolic", {"max_n": 50})
    text = emit_report(report, "text")
    assert "claim   : CLAIM2_3 [SYMBOLIC]" in text
    assert "verdict : REFUTED" in text
    assert "first_mismatch" in text
    assert "index=30" in text


def test_refuted_verdict_requires_supporting_fact():
    with pytest.raises(ValueError):
        ClaimReport(
            claim_id="CLAIM2_3",
            mode="NUMERIC",
            verdict="REFUTED",
            evidence=[{"name": "difference", "exceeds_bound": False}],
        )
    # a bare flag, or a gap without its bound, records no disagreement
    for fact in ({"name": "difference", "exceeds_bound": True},
                 {"name": "difference", "value": 2.0, "exceeds_bound": True}):
        with pytest.raises(ValueError):
            ClaimReport("CLAIM2_3", "NUMERIC", "REFUTED", {}, [fact]).validate()
    good = ClaimReport(
        claim_id="CLAIM2_3",
        mode="NUMERIC",
        verdict="REFUTED",
        evidence=[{"name": "difference", "value": 2.0, "combined_error_bound": 1.0,
                   "exceeds_bound": True}],
    )
    assert good.validate() is good


def test_refutation_needs_a_fact_of_its_modes_kind():
    # claim4 at s = 30 is INCONCLUSIVE; made REFUTED with its reason dropped,
    # its one refuting fact is the exact series_mismatch, which a NUMERIC
    # report cannot rest on: it says nothing about s = 30
    payload = json.loads(emit_report(cmd_check("claim4", None, {"s": 30.0}), "structured"))
    payload["verdict"] = "REFUTED"
    payload["evidence"] = [f for f in payload["evidence"] if f["name"] != "reason"]
    with pytest.raises(ValueError, match="^REFUTED verdict on evidence that carries INCONCLUSIVE$"):
        parse_report(json.dumps(payload))
    # nor can a SYMBOLIC report rest on a gap beyond its bound
    gap = {"name": "gap", "value": 2.0, "combined_error_bound": 1.0, "exceeds_bound": True}
    with pytest.raises(ValueError, match="^REFUTED verdict on evidence that carries CONSISTENT$"):
        ClaimReport("CLAIM2_3", "SYMBOLIC", "REFUTED", {}, [gap])
    # beside a reason the mismatch is there, and the reason leaves it undecided
    mismatch = {"name": "first_mismatch", "index": 30, "lhs_coefficient": "-2",
                "rhs_coefficient": "0", "exact": True}
    reason = {"name": "reason", "detail": "precision failure"}
    with pytest.raises(ValueError, match="^REFUTED verdict on evidence that carries INCONCLUSIVE$"):
        ClaimReport("CLAIM2_3", "SYMBOLIC", "REFUTED", {}, [mismatch, reason])


def test_symbolic_verdict_must_be_the_one_its_evidence_carries():
    # a SYMBOLIC report is checked both ways: a mismatch printed as
    # CONSISTENT, or a counterexample left CONSISTENT, does not parse
    payload = json.loads(emit_report(cmd_check("claim2_3", None, {"max_n": 500}), "structured"))
    payload["verdict"] = "CONSISTENT"
    with pytest.raises(ValueError, match="^CONSISTENT verdict on evidence that carries REFUTED"):
        parse_report(json.dumps(payload))
    payload = json.loads(emit_report(cmd_check("migotti_remark", None, {}), "structured"))
    (bound,) = [f for f in payload["evidence"] if f["name"] == "migotti_bound"]
    bound["all_heights_one"] = False
    with pytest.raises(ValueError, match="^CONSISTENT verdict on evidence that carries REFUTED"):
        parse_report(json.dumps(payload))


@pytest.mark.parametrize("mode, params, verdict", [
    ("numeric", {"s": 2.5}, "CONSISTENT"),
    ("numeric", {"s": 2.5}, "INCONCLUSIVE"),
    ("probe", {}, "CONSISTENT"),
])
def test_bounded_verdict_must_be_the_one_its_evidence_carries(mode, params, verdict):
    # NUMERIC and PROBE reports are checked both ways too: a gap far
    # beyond its bound printed as anything but REFUTED does not parse
    payload = json.loads(emit_report(cmd_check("claim2_3", mode, params), "structured"))
    payload["verdict"] = verdict
    with pytest.raises(ValueError, match=f"^{verdict} verdict on evidence that carries REFUTED$"):
        parse_report(json.dumps(payload))


_GAP = {"name": "gap", "value": 2.0, "combined_error_bound": 1.0, "exceeds_bound": True}
_REASON = {"name": "reason", "detail": "gap within combined error bounds"}
_MISMATCH = {"name": "series_mismatch", "index": 30, "lhs_coefficient": "-2",
             "rhs_coefficient": "0", "exact": True}


@pytest.mark.parametrize("mode,evidence,verdict", [
    ("NUMERIC", [_GAP], "REFUTED"),
    ("PROBE", [dict(_GAP, name="divergence", difference=2.0)], "REFUTED"),
    ("SYMBOLIC", [_MISMATCH], "REFUTED"),
    ("SYMBOLIC", [{"name": "migotti_bound", "all_heights_one": False, "exact": True}], "REFUTED"),
    # a reason leaves the check undecided, whatever else the evidence says
    ("NUMERIC", [_GAP, _REASON], "INCONCLUSIVE"),
    ("SYMBOLIC", [_MISMATCH, _REASON], "INCONCLUSIVE"),
    # claim4's exact leg says nothing about its s, and a bound says nothing exact
    ("NUMERIC", [_MISMATCH], "INCONCLUSIVE"),
    ("SYMBOLIC", [_GAP], "CONSISTENT"),
    # a bare flag, or a gap without its bound, records no disagreement
    ("NUMERIC", [{"name": "gap", "exceeds_bound": True}], "INCONCLUSIVE"),
    ("PROBE", [{"name": "divergence", "difference": 2.0, "exceeds_bound": True}], "INCONCLUSIVE"),
    ("SYMBOLIC", [], "CONSISTENT"),
    ("NUMERIC", [], "INCONCLUSIVE"),
    ("PROBE", [], "INCONCLUSIVE"),
    # half a coefficient pair records no disagreement, and reading it raises nothing
    ("SYMBOLIC", [{"name": "first_mismatch", "index": 30, "lhs_coefficient": "-2", "exact": True}],
     "CONSISTENT"),
    ("SYMBOLIC", [{"name": "first_mismatch", "index": 30, "rhs_coefficient": "0", "exact": True}],
     "CONSISTENT"),
    # a refuting-looking fact whose name has no FACT_RULES row refutes nothing
    ("SYMBOLIC", [{"name": "scan", "exact": True, "all_heights_one": False}], "CONSISTENT"),
    ("NUMERIC", [dict(_GAP, name="lhs")], "INCONCLUSIVE"),
])
def test_verdict_of_reads_the_verdict_off_the_evidence(mode, evidence, verdict):
    assert verdict_of(mode, evidence) == verdict


def test_exact_flag_alone_does_not_support_refutation():
    with pytest.raises(ValueError):
        ClaimReport("CLAIM2_3", "SYMBOLIC", "REFUTED", {},
                    [{"name": "scan", "exact": True}]).validate()
    equal = {"name": "first_mismatch", "index": 30, "lhs_coefficient": "0",
             "rhs_coefficient": "0", "exact": True}
    with pytest.raises(ValueError):
        ClaimReport("CLAIM2_3", "SYMBOLIC", "REFUTED", {}, [equal]).validate()
    unequal = dict(equal, lhs_coefficient="-2")
    ClaimReport("CLAIM2_3", "SYMBOLIC", "REFUTED", {}, [unequal]).validate()


def test_migotti_refutation_needs_a_counterexample():
    phi = {"name": "phi_105_coefficients", "degree_7": -2, "degree_41": -2,
           "height": 2, "exact": True}
    bound = {"name": "migotti_bound", "scan_limit": 200, "eligible_count": 197,
             "all_heights_one": True, "exact": True}
    with pytest.raises(ValueError):
        ClaimReport("MIGOTTI_REMARK", "SYMBOLIC", "REFUTED", {}, [phi, bound]).validate()
    for fact in (dict(phi, degree_41=-1), dict(bound, all_heights_one=False)):
        ClaimReport("MIGOTTI_REMARK", "SYMBOLIC", "REFUTED", {}, [fact]).validate()


def test_parse_report_recomputes_exceeds_bound():
    payload = {
        "claim_id": "CLAIM2_3",
        "mode": "NUMERIC",
        "verdict": "REFUTED",
        "parameters": {},
        "evidence": [{"name": "difference", "value": 1e-20,
                      "combined_error_bound": 1.0, "exceeds_bound": True}],
    }
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))
    # a hidden discrepancy is as inconsistent as an invented one
    payload["verdict"] = "INCONCLUSIVE"
    payload["evidence"][0].update(value=2.0, exceeds_bound=False)
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))
    payload["verdict"] = "REFUTED"
    payload["evidence"][0]["exceeds_bound"] = True
    assert parse_report(json.dumps(payload)).verdict == "REFUTED"
    # a bound that is not a number cannot be compared with the gap
    payload["evidence"][0]["combined_error_bound"] = "1.0"
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))


def test_report_validation_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ClaimReport("CLAIM2_3", "NUMERIC", "MAYBE").validate()
    with pytest.raises(ValueError):
        ClaimReport("CLAIM2_3", "FAST", "CONSISTENT").validate()
    with pytest.raises(ValueError):
        ClaimReport("CLAIM7", "NUMERIC", "CONSISTENT").validate()


def test_replace_builds_a_checked_report():
    report = ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE")
    # None fills in as it does in the constructor, so the report renders
    cleared = report._replace(parameters=None)
    assert cleared.parameters == {}
    assert emit_report(cleared, "text").splitlines()[2] == "parameters: "
    with pytest.raises(ValueError, match="^MAYBE verdict on evidence that carries INCONCLUSIVE$"):
        report._replace(verdict="MAYBE")
    with pytest.raises(ValueError, match="^REFUTED verdict on evidence that carries INCONCLUSIVE$"):
        report._replace(verdict="REFUTED")


def test_unpickling_builds_a_checked_report():
    # unpickling rebuilds through __new__, so a report forged past it
    # does not load back
    forged = tuple.__new__(ClaimReport, ("CLAIM2_3", "NUMERIC", "REFUTED", {}, []))
    message = "^REFUTED verdict on evidence that carries INCONCLUSIVE$"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged, protocol))


@pytest.mark.parametrize("field, value", [
    ("parameters", [1]),
    ("evidence", [1]),
    ("evidence", [{}]),
    ("evidence", [{"name": 1}]),
    ("evidence", {"name": "reason"}),
    ("claim_id", ["CLAIM2_3"]),
    ("mode", ["NUMERIC"]),
])
def test_parse_report_refuses_shapes_it_cannot_render(field, value):
    payload = {"claim_id": "CLAIM2_3", "mode": "NUMERIC", "verdict": "INCONCLUSIVE",
               "parameters": {}, "evidence": []}
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        parse_report(json.dumps(payload))


def _nan_difference(payload):
    next(f for f in payload["evidence"] if f["name"] == "difference")["value"] = math.nan


@pytest.mark.parametrize("forge", [
    _nan_difference, lambda payload: payload["parameters"].update(s=math.inf)],
    ids=["difference-NaN", "s-Infinity"])
def test_parse_report_refuses_a_non_finite_number(forge):
    # json reads NaN and Infinity, which emit_report would print back as non-JSON
    payload = json.loads(emit_report(cmd_check("claim2_3", "numeric", {"s": 50}), "structured"))
    forge(payload)
    with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
        parse_report(json.dumps(payload))


def test_a_report_refuses_a_non_finite_number_inside_a_list():
    deep = [-math.inf]
    for _ in range(900):  # nested as deep as json reads, past a recursive walk's depth
        deep = [deep]
    with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
        ClaimReport("CLAIM2_3", "PROBE", "INCONCLUSIVE", {"eps_grid": [1e-2, deep]})
    with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
        ClaimReport("CLAIM2_3", "PROBE", "INCONCLUSIVE", {},
                    [{"name": "probe_row", "rows": [{"lhs_value": math.nan}]}])


def _with_extra_key():
    # a REFUTED report with one field too many: parsing it would drop the field
    payload = json.loads(emit_report(cmd_check("claim2_3", None, {"max_n": "40"}), "structured"))
    return json.dumps({**payload, "note": "forged"})


@pytest.mark.parametrize("text", ['{"claim_id": "CLAIM2_3"}', "[]", '"CLAIM2_3"', "{",
                                  pytest.param(_with_extra_key, id="extra-key")])
def test_parse_report_refuses_text_that_is_not_a_report(text):
    with pytest.raises(ValueError):
        parse_report(text() if callable(text) else text)


def test_a_report_echoes_only_its_own_claim_and_mode():
    # a REFUTED report edited to echo another check does not parse, so a check
    # re-run from a report's parameters is the one the report records
    payload = json.loads(emit_report(cmd_check("claim2_3", None, {"max_n": "40"}), "structured"))
    assert parse_report(json.dumps(payload)).verdict == "REFUTED"
    for echo in ({"claim": "CLAIM4"}, {"mode": "NUMERIC"}, {"claim": "CLAIM4", "mode": "NUMERIC"}):
        forged = {**payload, "parameters": {**payload["parameters"], **echo}}
        with pytest.raises(ValueError, match="^parameters echo a claim or mode other than"):
            parse_report(json.dumps(forged))
    with pytest.raises(ValueError, match="^parameters echo a claim or mode other than"):
        ClaimReport("CLAIM4", "NUMERIC", "INCONCLUSIVE", {"claim": "CLAIM2_3"})


@pytest.mark.parametrize("parameters, evidence", [
    ({1: 2.0}, []),
    ({}, [{"name": "lhs", 1: 2.0}]),
    ({"eps_grid": (1e-2, 1e-3)}, []),
], ids=["int-key", "int-key-in-a-fact", "tuple"])
def test_a_report_refuses_what_json_reads_back_as_another_report(parameters, evidence):
    # JSON prints the key 1 as "1" and a tuple as a list, so such a report would not read back
    with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
        ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", parameters, evidence)


def test_every_path_refuses_a_list_nested_400_deep():
    # deep enough that rendering it recursively as text would meet Python's recursion limit
    deep = []
    for _ in range(399):
        deep = [deep]
    forged = tuple.__new__(ClaimReport, ("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", {"x": deep}, []))
    builds = [lambda: ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", {"x": deep}),
              lambda: ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE")._replace(
                  parameters={"x": deep}),
              lambda: pickle.loads(pickle.dumps(forged)),
              lambda: parse_report(json.dumps(forged._asdict()))]
    for build in builds:
        with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
            build()


def test_a_report_refuses_an_int_it_cannot_print():
    # str() and json print an int of at most sys.get_int_max_str_digits() digits, so a
    # longer one would validate and then fail in emit_report
    widest = -(10 ** sys.get_int_max_str_digits() - 1)
    printable = ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", {"x": widest})
    assert parse_report(emit_report(printable, "structured")) == printable
    for parameters, evidence in (({"x": 10**5000}, []), ({"x": [1, widest * 10]}, []),
                                 ({}, [{"name": "lhs", "value": 10**5000}])):
        with pytest.raises(ValueError, match="^parameters and evidence must carry only finite"):
            ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", parameters, evidence)


def test_a_bad_fact_is_named_by_its_type():
    # its repr would recurse through a list nested past Python's recursion limit
    deep = []
    for _ in range(100_000):
        deep = [deep]
    for fact, kind in ((deep, "list"), ({"name": 1}, "dict")):
        with pytest.raises(ValueError, match=rf"^evidence fact \({kind}\) is not a dict with a "
                                             "string name$"):
            ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", {}, [fact])


_CHECK_REPORTS = [out for command, out in _structured_stdouts() if command.startswith("check ")]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4))
_SLOT = "\x00slot\x00"  # stands for the added value until the report is text


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@given(st.sampled_from(_CHECK_REPORTS), st.integers(0, 20), st.text(), _JSON_VALUES.map(json.dumps))
@example(_CHECK_REPORTS[0], 0, "x", _nested(400))
@example(_CHECK_REPORTS[0], 1, "x", _nested(990))
@example(_CHECK_REPORTS[0], 0, "x", _nested(2000))
@example(_CHECK_REPORTS[0], 1, "x", _nested(100_000))
def test_every_report_that_parses_renders_and_reads_back(golden, where, key, value):
    # any JSON value, as text, under a new key of a golden report's parameters or of
    # one of its facts: parse_report refuses the report with ValueError, or the report
    # renders in both formats and its structured output parses back to an equal report
    payload = json.loads(golden)
    targets = [payload["parameters"], *payload["evidence"]]
    fields = targets[where % len(targets)]
    assume(key not in fields and _SLOT not in key)
    fields[key] = _SLOT
    text = json.dumps(payload).replace(json.dumps(_SLOT), value, 1)
    try:
        parsed = parse_report(text)
    except ValueError:
        return
    emit_report(parsed, "text")
    assert parse_report(emit_report(parsed, "structured")) == parsed


# -- tables ---------------------------------------------------------------


def test_zeta_table_structured():
    out = cmd_table("zeta", {"s": "2,3", "format": "structured"})
    payload = json.loads(out)
    assert payload["table"] == "zeta"
    assert [row["s"] for row in payload["rows"]] == [2.0, 3.0]
    assert payload["rows"][0]["value"] == pytest.approx(1.6449340668, abs=1e-9)


def test_prime_zeta_table_default_grid():
    out = cmd_table("prime-zeta", {"format": "structured"})
    rows = json.loads(out)["rows"]
    assert [row["s"] for row in rows] == [2.0, 3.0, 4.0]
    assert rows[0]["value"] == pytest.approx(0.4522474200, abs=1e-9)


def test_zeta_table_text_alignment():
    out = cmd_table("zeta", {"s": "2"})
    lines = out.splitlines()
    assert lines[0].split() == ["s", "value", "error_bound"]
    assert len(lines) == 2


def test_cyclotomic_height_table():
    out = cmd_table("cyclotomic-height", {"n": "1..120", "format": "structured"})
    payload = json.loads(out)
    assert payload["parameters"] == {"n": list(range(1, 121))}
    rows = payload["rows"]
    assert len(rows) == 120
    by_n = {row["n"]: row for row in rows}
    assert all(by_n[n]["height"] == 1 for n in range(1, 105))
    assert by_n[105]["height"] == 2
    assert by_n[105]["degree"] == 48
    # every degree is phi(n), here and in a window at the top of the domain
    top = json.loads(cmd_table("cyclotomic-height", {"n": "9800..10000",
                                                      "format": "structured"}))["rows"]
    assert [row["n"] for row in top] == list(range(9800, 10001))
    assert all(row["degree"] == naive_totient(row["n"]) for row in rows + top)


def test_cyclotomic_height_table_comma_list():
    out = cmd_table("cyclotomic-height", {"n": "3,5,105", "format": "structured"})
    payload = json.loads(out)
    # the echo names the rows, as for a range
    assert payload["parameters"] == {"n": [3, 5, 105]}
    assert [row["n"] for row in payload["rows"]] == [3, 5, 105]


def test_probe_table():
    out = cmd_table("probe", {"eps": "1e-2..1e-3", "format": "structured"})
    rows = json.loads(out)["rows"]
    assert [row["eps"] for row in rows] == [0.01, 0.001]
    assert rows[0]["lhs"] < rows[0]["rhs"]


def test_radical_table_marks_nonexistent_truncations():
    out = cmd_table("radical", {"s": "2", "depth": 12, "format": "structured"})
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 12
    by_n = {row["n"]: row for row in rows}
    # the naive depth-2 truncation does not exist at s=2
    assert by_n[2]["zero_tail_gap"] is None
    assert by_n[12]["one_tail_gap"] == 0.0
    text = cmd_table("radical", {"s": "2", "depth": 12})
    assert "inf" in text


def test_radical_table_wants_one_s():
    with pytest.raises(UsageError):
        cmd_table("radical", {"s": "2,3"})


def test_radical_domain_table_and_summary():
    text = cmd_table("radical-domain", {"depth": 20})
    assert text.splitlines()[-1] == (
        "smallest grid s with all ONE_TAIL radicands positive: 1.6"
    )
    payload = json.loads(cmd_table("radical-domain", {"depth": 20, "format": "structured"}))
    assert "summary" in payload
    by_s = {row["s"]: row for row in payload["rows"]}
    assert by_s[1.4]["all_radicands_positive"] is False
    assert by_s[1.4]["failing_level"] == 1
    assert by_s[2.0]["all_radicands_positive"] is True
    assert by_s[2.0]["failing_level"] is None


def test_radical_tables_fail_only_what_the_pole_makes_unreachable():
    payload = json.loads(cmd_table("radical-domain",
                                   {"s": "1.0000001,2", "depth": 20, "format": "structured"}))
    near, far = payload["rows"]
    assert list(near) == ["s", "error"] and "pole" in near["error"]
    assert far == {"s": 2.0, "all_radicands_positive": True, "failing_level": None}
    assert payload["summary"].splitlines() == [
        "smallest grid s with all ONE_TAIL radicands positive: 2", near["error"]]
    payload = json.loads(cmd_table("radical", {"s": "1.0000001", "format": "structured"}))
    assert payload["rows"] == []
    assert payload["summary"] == "no gaps: " + near["error"]


def test_table_usage_errors():
    with pytest.raises(UsageError, match=r"^unknown table selector 'nope'$"):
        cmd_table("nope", {})
    with pytest.raises(UsageError):
        cmd_table("zeta", {"s": "0.5"})
    with pytest.raises(UsageError):
        cmd_table("zeta", {"s": "two"})
    with pytest.raises(UsageError, match="power of 10"):
        cmd_table("probe", {"eps": "3e-2..1e-5"})
    with pytest.raises(UsageError, match="power of 10"):
        cmd_table("probe", {"eps": "1e-5..1e-2"})
    with pytest.raises(UsageError, match="is reversed"):
        cmd_table("cyclotomic-height", {"n": "5..1"})
    # 1 + eps rounds to 1 from eps = 2^-53 down: refused, naming the eps
    with pytest.raises(UsageError, match="^--eps 1e-17 is at most half the double"):
        cmd_table("probe", {"eps": "1e-17"})
    with pytest.raises(UsageError, match="^--eps 1e-16 is at most half the double"):
        cmd_table("probe", {"eps": "1e-15..1e-17"})
    with pytest.raises(UsageError, match=r"^--n invalid literal for int\(\) with base 10: 'x'$"):
        cmd_table("cyclotomic-height", {"n": "1..x"})
    for n in (",", ", ,"):
        with pytest.raises(UsageError, match=f"^--n list '{n}' is empty$"):
            cmd_table("cyclotomic-height", {"n": n})


def test_out_of_domain_n_range_is_refused_before_it_is_expanded(capsys):
    # a 2 * 10^6 element list of ints would take about 70 MB; the check
    # on the range's ends must refuse it with nothing of that size built
    tracemalloc.start()
    try:
        rc = main(["table", "cyclotomic-height", "--n", "1..2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == "error: --n must lie in [1, 10000], got 1..2000000\n"
    assert peak < 2_000_000
    for spec in ("0..5", "3,0", "9999..10001", "10001"):
        with pytest.raises(UsageError, match=r"^--n must lie in \[1, 10000\]"):
            cmd_table("cyclotomic-height", {"n": spec})


# the options each table reads, in report order
_TABLE_READS = {
    "zeta": ["tol", "s"],
    "prime-zeta": ["tol", "s"],
    "cyclotomic-height": ["n"],
    "probe": ["tol", "eps"],
    "radical": ["s", "depth"],
    "radical-domain": ["s", "depth"],
}
_TABLE_FLAG_VALUES = {"tol": 1e-9, "s": "2", "n": "1..3", "eps": "1e-2", "depth": 5}


@pytest.mark.parametrize("selector,key", [
    (selector, key) for selector, reads in _TABLE_READS.items()
    for key in _TABLE_FLAG_VALUES if key not in reads
])
def test_table_rejects_an_option_it_does_not_read(selector, key):
    with pytest.raises(UsageError, match=f"^{selector} does not use --{key}$"):
        cmd_table(selector, {key: _TABLE_FLAG_VALUES[key]})


_ENTRIES = ([("check", claim, mode) for claim, modes in report.CHECKS.items() for mode in modes]
            + [("table", selector, None) for selector in cli._TABLES])


@pytest.mark.parametrize("command,target,mode", _ENTRIES)
def test_entry_declares_every_parameter_it_echoes(command, target, mode):
    # a command echoes exactly its registry entry's parameters, converted
    # from their defaults in order, and its pipeline or table only reads them
    if command == "check":
        run, declared = cli._PIPELINES[target, mode]
        echoed = cmd_check(target, mode, {}).parameters
        want = {"claim": target, "mode": mode}
    else:
        run, declared = cli._TABLES[target]
        echoed = json.loads(cmd_table(target, {"format": "structured"}))["parameters"]
        want = {}
    want.update((key, convert(default)) for key, (default, convert) in declared.items())
    assert list(echoed.items()) == list(want.items())
    out = run(types.MappingProxyType(want))
    if command == "check":  # a pipeline returns its evidence alone, a list of named facts
        assert isinstance(out, list)
        assert all(isinstance(fact, dict) and isinstance(fact.get("name"), str) for fact in out)


@pytest.mark.parametrize("command,target,mode", _ENTRIES)
def test_unread_flags_are_named_in_help_order(command, target, mode, capsys):
    # every flag the entry does not read, passed at once, is named in the
    # order the subcommand's --help prints it, whether its value is well
    # formed or not
    _, declared = cli._PIPELINES[target, mode] if command == "check" else cli._TABLES[target]
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    unread = [a.option_strings[0] for a in subparsers.choices[command]._actions
              if a.option_strings and a.dest not in ("help", "mode", "format", *declared)]
    argv = [command, target.lower()] + (["--mode", mode.lower()] if mode else [])
    label = f"{target} [{mode}]" if mode else target
    for value in ("2", "x"):
        assert main(argv + [arg for flag in reversed(unread) for arg in (flag, value)]) == 2
        assert capsys.readouterr().err == f"error: {label} does not use {', '.join(unread)}\n"


@pytest.mark.parametrize("command,target,mode,flag,value", [
    (command, target, mode, key.replace("_", "-"), value)
    for command, target, mode in _ENTRIES
    for key in (cli._PIPELINES[target, mode] if command == "check" else cli._TABLES[target])[1]
    if key in (cli._CHECK_FLAGS if command == "check" else cli._TABLE_FLAGS)
    # a table's list flags also refuse a list of no values
    for value in (("x", ",") if command == "table" and key in ("s", "n", "eps") else ("x",))
])
def test_a_malformed_value_is_one_error_line_naming_its_flag(command, target, mode, flag,
                                                             value, capsys):
    # every flag an entry reads converts its typed string in one place, so
    # a malformed number or an empty list is refused alike: exit 2, one line
    argv = [command, target.lower()] + (["--mode", mode.lower()] if mode else [])
    assert main(argv + [f"--{flag}", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --{flag} ") and err.count("\n") == 1 and err.endswith("\n")


def test_a_parameter_without_a_flag_keeps_its_default():
    # the probe check echoes its fixed grid, the probe table's default,
    # and an eps_grid option cannot set it
    fixed = cmd_check("claim2_3", "probe", {"eps_grid": "1e-3"})
    assert fixed == cmd_check("claim2_3", "probe", {})
    assert fixed.parameters["eps_grid"] == [1e-2, 1e-3, 1e-4, 1e-5]
    table = json.loads(cmd_table("probe", {"format": "structured"}))
    assert table["parameters"]["eps"] == fixed.parameters["eps_grid"]


@pytest.mark.parametrize("selector", list(_TABLE_READS))
def test_table_parameters_are_the_options_it_reads(selector):
    _, defaults = cli._TABLES[selector]
    assert sorted(defaults) == sorted(_TABLE_READS[selector])
    payload = json.loads(cmd_table(selector, {"format": "structured"}))
    assert list(payload["parameters"]) == _TABLE_READS[selector]


# -- entry point ----------------------------------------------------------


def test_main_check_exit_zero_and_json(capsys):
    rc = main(
        ["check", "claim2_3", "--mode", "symbolic", "--max-n", "100",
         "--format", "structured"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "REFUTED"
    assert payload["parameters"] == {"claim": "CLAIM2_3", "mode": "SYMBOLIC", "max_n": 100}


def test_main_refuted_still_exits_zero(capsys):
    assert main(["check", "claim4", "--depth", "8"]) == 0
    out = capsys.readouterr().out
    assert "verdict : REFUTED" in out


def test_main_usage_error_exits_two(capsys):
    rc = main(["check", "claim4", "--mode", "symbolic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_main_bad_selector_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["table", "nope"])


# edge values of each flag, typed as --flag=VALUE so a leading "-" is a value;
# sizes stay small: a --max-n that runs is at most 300, an --n range at most 200 wide
_FLAG_VALUES = {
    "s": ["2", "1.0000001", "1e300", repr(sys.float_info.max), "1", "nan", "x"],
    "max_n": ["1", "30", "300", "0", "-5", "2.5", "1000001"],
    "tol": ["1e-12", "5e-324", "1e300", "0", "inf"],
    "depth": ["0", "1", "20", "64", "65"],
    "n": ["1..200", "9801..10000", "200..1", "9990..10001", "0..3", "3,5,105", ""],
    "eps": ["1e-2..1e-5", "1e-3", "1e-5..1e-2", "1e-2..1e-16", "0"],
}


@st.composite
def _argv(draw):
    # a check from report.CHECKS, in one of its own modes, any mode or by default, or a
    # table from cli._TABLES; mostly with flags its entry declares, else with any flag
    # of its subcommand, each at an edge value (a table's --s at a list of them)
    if draw(st.booleans()):
        claim = draw(st.sampled_from(list(report.CHECKS)))
        every_mode = sorted({m for modes in report.CHECKS.values() for m in modes})
        mode = draw(st.none() | st.sampled_from(report.CHECKS[claim]) | st.sampled_from(every_mode))
        _, declared = cli._PIPELINES.get((claim, mode or report.CHECKS[claim][0]), (None, {}))
        argv = ["check", claim.lower(), *(["--mode", mode.lower()] if mode else [])]
        flags = cli._CHECK_FLAGS
    else:
        selector = draw(st.sampled_from(list(cli._TABLES)))
        _, declared = cli._TABLES[selector]
        argv, flags = ["table", selector], cli._TABLE_FLAGS
    pool = [key for key in flags if key in declared] if draw(st.integers(0, 3)) else []
    for key in draw(st.lists(st.sampled_from(pool or list(flags)), unique=True)):
        values = st.lists(st.sampled_from(_FLAG_VALUES[key]), min_size=1,
                          max_size=3 if argv[0] == "table" and key == "s" else 1)
        argv.append(f"--{key.replace('_', '-')}={','.join(draw(values))}")
    return argv + ["--format", draw(st.sampled_from(["text", "structured"]))]


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["check", "claim2_3", "--mode", "numeric", "--s=1.0000001", "--tol=5e-324",
          "--format", "structured"])
@example(["check", "claim4", "--s=1e300", "--depth=64", "--format", "structured"])
@example(["check", "migotti_remark", "--max-n=300", "--format", "structured"])
@example(["table", "cyclotomic-height", "--n=9801..10000", "--format", "text"])
def test_every_command_line_ends_in_output_or_one_error_line(argv):
    # status 0 with nothing on stderr, or 2 with one error line, and every
    # structured check report reads back equal
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert (status, err) == (0, "") or status == 2 and re.fullmatch(r"error: [^\n]*\n", err)
    if status == 0 and argv[0] == "check" and argv[-1] == "structured":
        assert emit_report(parse_report(out), "structured") + "\n" == out


def test_main_table_path(capsys):
    assert main(["table", "zeta", "--s", "2,4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "s"


def test_structured_output_is_deterministic(capsys):
    assert main(["check", "claim2_3", "--mode", "numeric", "--format", "structured"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "claim2_3", "--mode", "numeric", "--format", "structured"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_closed_stdout_exits_one_without_a_traceback():
    # the reader is gone before pzcheck writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pzcheck", "check", "claim2_3", "--mode", "numeric"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_console_script_installed():
    exe = shutil.which("pzcheck")
    assert exe, "console script pzcheck not on PATH"
    proc = subprocess.run(
        [exe, "check", "migotti_remark", "--max-n", "120", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "CONSISTENT"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pzcheck", "table", "zeta", "--s", "4",
         "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["s"] == 4.0
