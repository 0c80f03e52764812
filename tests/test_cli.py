"""cli: claim pipelines, the report contract of pzcheck.report, tables, exit codes."""

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

from pzcheck import (DirichletSeries, arith, claim_lhs_series, claim_rhs_series, cli, report,
                     sieve, zeta)
from pzcheck.cli import UsageError, _mismatch_scan, cmd_check, cmd_table, main
from pzcheck.report import ClaimReport, emit_report, parse_report


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
    # both passes read the 10^4 table the cyclotomic module already holds
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
    with pytest.raises(UsageError):
        cmd_check("claim9", None, {})
    with pytest.raises(UsageError, match=r"^--max-n must be <= 10000 \(cyclotomic domain\)"):
        cmd_check("migotti_remark", None, {"max_n": 10**5})
    with pytest.raises(UsageError, match="^--max-n must be >= 1, got 0$"):
        cmd_check("claim2_3", "symbolic", {"max_n": 0})
    with pytest.raises(UsageError, match=r"^--max-n must be <= 1000000 \(exact series work\)"):
        cmd_check("claim2_3", "symbolic", {"max_n": 10**6 + 1})
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
        with pytest.raises(UsageError, match="finite|bad --eps range"):
            cmd_table(selector, options)


_OUT_OF_DOMAIN = {"s": (1.0, 0.5, -3.0), "tol": (0.0, -1.0), "depth": (0, 65),
                  "n": ("0..3", "9999..10001"), "eps": ("0.9", "1e-3,1e-2")}


@pytest.mark.parametrize("command,target,mode,key,value", [
    (command, target, mode, key, value)
    for command, entries in (
        ("check", [(claim, mode, defaults) for claim, modes in cli._PIPELINES.items()
                   for mode, (_, defaults) in modes.items()]),
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


def test_mismatch_scan_flag_needs_exactly_the_paper_set():
    # the flag holds only when the mismatches are precisely the
    # squarefree n <= N with at least three distinct primes
    flag = "all_mismatches_have_three_distinct_primes"
    table = sieve(200)
    lhs, rhs = claim_lhs_series(200), claim_rhs_series(200, table)
    assert _mismatch_scan(lhs, rhs, table)[flag] is True
    missing = rhs.coefficients()
    missing[30 - 1] = lhs[30]  # 30 = 2*3*5 no longer differs
    extra = rhs.coefficients()
    extra[60 - 1] += 1  # 60 = 2^2*3*5 has three primes but is not squarefree
    for coefficients in (missing, extra):
        scan = _mismatch_scan(lhs, DirichletSeries(coefficients), table)
        assert scan[flag] is False


def test_check_is_case_insensitive():
    report = cmd_check("Claim2_3", "Numeric", {"s": 3.0})
    assert report.claim_id == "CLAIM2_3"
    assert report.verdict == "REFUTED"


# -- report contract -----------------------------------------------------


def test_report_vocabulary_is_the_pipeline_registry():
    # argparse's choices come from report's tuples, and validate() and
    # the golden coverage test read them too
    assert tuple(cli._PIPELINES) == report.CLAIM_IDS
    modes = dict.fromkeys(mode for modes in cli._PIPELINES.values() for mode in modes)
    assert tuple(modes) == report.MODES


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
    payload["evidence"][0]["exceeds_bound"] = True
    assert parse_report(json.dumps(payload)).verdict == "INCONCLUSIVE"
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
    report = ClaimReport("CLAIM2_3", "NUMERIC", "CONSISTENT")
    # None fills in as it does in the constructor, so the report renders
    cleared = report._replace(parameters=None)
    assert cleared.parameters == {}
    assert emit_report(cleared, "text").splitlines()[2] == "parameters: "
    with pytest.raises(ValueError, match="unknown verdict"):
        report._replace(verdict="MAYBE")
    with pytest.raises(ValueError, match="REFUTED verdict without"):
        report._replace(verdict="REFUTED")


def test_unpickling_builds_a_checked_report():
    # unpickling rebuilds through __new__, so a report forged past it
    # does not load back
    forged = tuple.__new__(ClaimReport, ("CLAIM2_3", "NUMERIC", "REFUTED", {}, []))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="REFUTED verdict without"):
            pickle.loads(pickle.dumps(forged, protocol))


@pytest.mark.parametrize("field, value", [
    ("parameters", [1]),
    ("evidence", [1]),
    ("evidence", [{}]),
    ("evidence", [{"name": 1}]),
    ("evidence", {"name": "reason"}),
])
def test_parse_report_refuses_shapes_it_cannot_render(field, value):
    payload = {"claim_id": "CLAIM2_3", "mode": "NUMERIC", "verdict": "CONSISTENT",
               "parameters": {}, "evidence": []}
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        parse_report(json.dumps(payload))


@pytest.mark.parametrize("text", ['{"claim_id": "CLAIM2_3"}', "[]", '"CLAIM2_3"', "{"])
def test_parse_report_refuses_text_that_is_not_a_report(text):
    with pytest.raises(ValueError):
        parse_report(text)


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
    with pytest.raises(UsageError):
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
    with pytest.raises(UsageError, match="^bad --n range '1..x'$"):
        cmd_table("cyclotomic-height", {"n": "1..x"})
    for n in (",", ", ,"):
        with pytest.raises(UsageError, match="^empty --n list$"):
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


_ENTRIES = ([("check", claim, mode) for claim, modes in cli._PIPELINES.items() for mode in modes]
            + [("table", selector, None) for selector in cli._TABLES])


@pytest.mark.parametrize("command,target,mode", _ENTRIES)
def test_entry_declares_every_parameter_it_echoes(command, target, mode):
    # a command echoes exactly its registry entry's parameters, converted
    # from their defaults in order, and its pipeline or table only reads them
    if command == "check":
        run, declared = cli._PIPELINES[target][mode]
        echoed = cmd_check(target, mode, {}).parameters
        want = {"claim": target, "mode": mode}
    else:
        run, declared = cli._TABLES[target]
        echoed = json.loads(cmd_table(target, {"format": "structured"}))["parameters"]
        want = {}
    want.update((key, convert(default)) for key, (default, convert) in declared.items())
    assert list(echoed.items()) == list(want.items())
    run(types.MappingProxyType(want))


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
