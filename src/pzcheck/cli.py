"""Command-line front end: claim checks and evaluation tables.

    pzcheck check <claim> [--mode MODE] [--s S]
                  [--max-n N] [--tol T] [--depth D] [--format text|structured]
    pzcheck table <selector> [--s LIST] [--n RANGE] [--eps RANGE]
                  [--depth D] [--tol T] [--format text|structured]

Exit status is 0 on success whatever the verdict, 1 on a closed
standard output and 2 on a usage error: argparse's, or a UsageError
from a flag's converter, an unread flag or an unsupported claim or
mode.  Any other exception is a bug: a traceback and Python's status 1.
Structured output is one UTF-8 JSON object with stable key order and
byte-identical reruns; pzcheck.report holds the report's rules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import compress

from . import arith, cyclotomic, dirichlet, radical, zeta
from .cyclotomic import cyclotomic as cyclotomic_poly
from .cyclotomic import height as cyclotomic_height
from .report import (CHECKS, ClaimReport, _by_bound, _discrepancy, _eval_fact, _fmt_value,
                     _migotti_evidence, _mismatch_fact, _r, _reason, emit_report, verdict_of)

_SERIES_MAX_N = 10**6  # exact claim series; 10^6 already takes seconds and 118 MB peak RSS


class UsageError(ValueError):
    """Bad flags, ranges, or claim/mode combinations (exit status 2)."""


def _finite_above(low: float):
    # converter of a typed string or a number to a finite float above low,
    # rounded as reported
    def convert(value) -> float:
        v = float(value)
        rounded = _r(v)  # rounding can carry the largest doubles to infinity
        if not math.isfinite(rounded):
            raise ValueError(f"rounds to infinity at 15 significant digits, got {v}"
                             if math.isfinite(v) else f"must be finite, got {v}")
        if not rounded > low:
            raise ValueError(f"must be > {low:g}, got {v}")
        return rounded
    return convert


_ABOVE_ONE = _finite_above(1.0)


def _count_to(most: int, domain: str):
    # converter of a typed string or a number to an int in [1, most]; the
    # cap's message names its domain
    def convert(value) -> int:
        n = int(str(value))  # a float such as 2.5 or inf is refused, not truncated
        if n < 1:
            raise ValueError(f"must be >= 1, got {n}")
        if n > most:
            raise ValueError(f"must be <= {most} ({domain}), got {n}")
        return n
    return convert


_DEPTH = (20, _count_to(radical._MAX_DEPTH, "radical depth"))  # default and converter
_TOL = (zeta.DEFAULT_TOL, _finite_above(0.0))  # the error-bound target's default and converter


def _parse_list(spec: str, kind=float) -> list:
    values = [kind(part) for part in spec.split(",") if part.strip()]
    if not values:
        raise ValueError(f"list {spec!r} is empty")
    return values


def _s_list(spec: str) -> list[float]:
    return [_ABOVE_ONE(s) for s in _parse_list(spec)]


def _one_s(spec: str) -> float:
    s, *others = _s_list(spec)
    if others:
        raise ValueError("takes exactly one value in the radical table")
    return s


def _n_range(spec: str) -> list[int]:
    # the bounds are checked before a range is expanded into a list
    if ".." not in spec:
        values = _parse_list(spec, int)
        lo, hi = min(values), max(values)
    else:
        lo, hi = map(int, spec.split("..", 1))
        if hi < lo:
            raise ValueError(f"range {spec!r} is reversed")
        values = range(lo, hi + 1)
    if lo < 1 or hi > cyclotomic._MAX_N:
        raise ValueError(f"must lie in [1, {cyclotomic._MAX_N}], got {spec}")
    return list(values)


def _eps_grid(spec: str) -> list[float]:
    # "1e-2..1e-5" walks down a decade at a time, written out as its list
    if ".." in spec:
        start, end = map(float, spec.split("..", 1))
        # an end that is not positive and finite has no power of 10
        hi, lo = (round(math.log10(e)) if 0.0 < e < math.inf else math.nan for e in (start, end))
        if not (math.isclose(start, 10.0**hi) and math.isclose(end, 10.0**lo) and lo <= hi):
            raise ValueError(f"range {spec!r} must run from a larger to a smaller power of 10")
        spec = ",".join(f"1e{k}" for k in range(hi, lo - 1, -1))
    grid = [_r(e) for e in _parse_list(spec)]
    fault = zeta._probe_grid_fault(grid)
    if fault:
        raise ValueError(fault)
    return grid


_PROBE_EPS = ("1e-2..1e-5", _eps_grid)  # the probe table's default, the probe check's grid


def _used_options(label: str, declared: dict, options: dict, flags: dict) -> dict:
    """The entry's parameters in report order, converted from their flags or defaults
    (a parameter with no flag keeps its default); an unread flag, or a converter's
    ValueError with its flag put in front, raises UsageError."""
    unused = ["--" + key.replace("_", "-") for key in flags
              if options.get(key) is not None and key not in declared]
    if unused:
        raise UsageError(f"{label} does not use {', '.join(unused)}")
    used = {}
    for key, (default, convert) in declared.items():
        value = options.get(key) if key in flags else None
        try:
            used[key] = convert(default if value is None else value)
        except ValueError as exc:
            raise UsageError(f"--{key.replace('_', '-')} {exc}") from exc
    return used


# ---------------------------------------------------------------- check
#
# A pipeline takes the converted parameters and returns its evidence, a list of
# facts; report builds each fact a verdict rule reads, and cmd_check reads the
# verdict off the evidence with verdict_of into one ClaimReport.


def _probe_dict(row: zeta.ProbeRow, suffix: str = "") -> dict:
    # raw values of one probe row; a failed row keeps only its reason
    if row.lhs is None:
        return {"eps": row.eps, "error": row.note}
    return {"eps": row.eps, "lhs" + suffix: row.lhs.value,
            "lhs_error_bound": row.lhs.error_bound, "rhs" + suffix: row.rhs.value,
            "rhs_error_bound": row.rhs.error_bound, "note": row.note}


def _mismatch_scan(n: int, support: list[int], table: arith.PrimeTable) -> dict:
    """The mismatch_scan fact of the support of lhs - rhs, truncated to N.

    all_mismatches_have_three_distinct_primes is true only when the
    indices where the series differ are exactly the squarefree m <= N
    with at least three distinct prime factors, the set the paper
    names, read off arith.omega_upto.
    """
    omega, squarefree = arith.omega_upto(n, table)
    return {
        "name": "mismatch_scan",
        "truncation": n,
        "mismatch_count": len(support),
        "all_mismatches_have_three_distinct_primes":
            support == [m for m in compress(range(n + 1), squarefree) if omega[m] >= 3],
    }


def _claim_support(n: int) -> tuple:
    # the claim's two exact series to N = n, the sieve they read and the
    # ascending support of lhs - rhs: the one comparison of the claim's sides
    table = arith.sieve(max(n, 2))
    lhs = dirichlet.claim_lhs_series(n)
    rhs = dirichlet.claim_rhs_series(n, table)
    return lhs, rhs, table, list(compress(range(1, n + 1), (lhs - rhs).coefficients()))


def _claim23_symbolic(params: dict) -> list:
    n = params["max_n"]
    lhs, rhs, table, support = _claim_support(n)
    if not support:
        return [{"name": "coefficient_agreement", "truncation": n, "exact": True}]
    m = support[0]
    return [_mismatch_fact("first_mismatch", m, lhs[m], rhs[m]),
            _mismatch_scan(n, support, table)]


def _claim23_numeric(params: dict) -> list:
    lhs = zeta.claim_lhs(params["s"])
    rhs = zeta.claim_rhs(params["s"], params["tol"])
    diff = _discrepancy("difference", lhs, rhs)
    evidence = [_eval_fact("lhs", lhs), _eval_fact("rhs", rhs), diff]
    return _by_bound(diff, evidence, "difference within combined error bounds at this s")


def _claim23_probe(params: dict) -> list:
    rows = zeta.singularity_probe(params["eps_grid"], params["tol"])
    evidence = [{"name": "probe_row", **_json_row(_probe_dict(row, "_value"))} for row in rows]
    if any(r.lhs is None or r.note for r in rows):
        return evidence + [_reason("precision failure on probe rows")]

    lhs_vals = [r.lhs.value for r in rows]
    rhs_vals = [r.rhs.value for r in rows]
    lhs_decreasing = all(a > b > 0.0 for a, b in zip(lhs_vals, lhs_vals[1:]))
    rhs_increasing = all(a < b for a, b in zip(rhs_vals, rhs_vals[1:]))
    fit = zeta.fit_log_quadratic(rows)
    last = rows[-1]
    divergence = _discrepancy("divergence", last.lhs, last.rhs, key="difference",
                              eps=_r(last.eps))
    evidence += [
        {
            "name": "monotonicity",
            "lhs_decreasing_to_zero": lhs_decreasing,
            "rhs_increasing": rhs_increasing,
        },
        {
            "name": "log_quadratic_fit",
            "leading": _r(fit.leading),
            "linear": _r(fit.linear),
            "constant": _r(fit.constant),
            "relative_residual": _r(fit.rel_residual),
        },
        divergence,
    ]
    if not (lhs_decreasing and rhs_increasing and fit.leading > 0.0 and fit.rel_residual < 0.1):
        return evidence + [_reason("probe shape checks failed")]
    return _by_bound(divergence, evidence, "divergence within combined error bounds")


def _claim4(params: dict) -> list:
    depth = params["depth"]
    result = radical.claim4_check(params["s"], depth, params["tol"])
    gap = _discrepancy("gap", result.radical_value, result.prime_zeta_value)

    # exact-series leg: squaring the radical identity must land on the
    # claimed identity's coefficient structure, sharing its mismatch
    n = 100
    lhs, rhs, table, support = _claim_support(n)
    m = support[0]
    p = dirichlet.prime_zeta_series(n, table)
    structure_ok = (1 - p).square() + dirichlet.unit_series(n) - dirichlet.dilate(p) == rhs

    evidence = [
        _eval_fact("radical_side", result.radical_value, depth=depth),
        _eval_fact("prime_zeta_side", result.prime_zeta_value),
        gap,
        {"name": "squared_form_equals_claim_form", "truncation": n, "equal": structure_ok},
        _mismatch_fact("series_mismatch", m, lhs[m], rhs[m]),
    ]
    return _by_bound(gap, evidence, "gap within combined error bounds")


def _migotti(params: dict) -> list:
    limit = params["max_n"]
    phi105 = cyclotomic_poly(105)
    # cross-check the counted height against the decoded coefficients of
    # the same checked digits, read back from cyclotomic's one-entry cache
    h105 = cyclotomic_height(105)
    if h105 != max(map(abs, cyclotomic_poly(105).coeffs)):
        raise ArithmeticError(f"packed height {h105} of Phi_105 disagrees with its coefficients")
    # n's distinct odd primes, omega(n) - [2 | n], from arith.omega_upto over
    # cyclotomic's own 10^4 sieve, so that only cyclotomic_height factors n
    omega, _ = arith.omega_upto(limit, cyclotomic._table())
    eligible = [n for n in range(1, limit + 1) if omega[n] - (n % 2 == 0) <= 2]
    violations = [n for n in eligible if cyclotomic_height(n) != 1]
    return _migotti_evidence(phi105, h105, limit, len(eligible), violations)


# the flags a check accepts, in --help and usage-error order, with their
# help, and (claim, mode) -> (pipeline, each parameter it reads after claim
# and mode, in report order, with its default and the converter that
# parses the typed string), one entry per check report.CHECKS lists; the
# claims, their modes, their order and each default are CHECKS's alone
_CHECK_FLAGS = {"s": "evaluation point", "max_n": "series truncation / scan limit",
                "tol": "error-bound target", "depth": "radical depth"}
_PIPELINES = {
    ("CLAIM2_3", "SYMBOLIC"): (
        _claim23_symbolic, {"max_n": (10**4, _count_to(_SERIES_MAX_N, "exact series work"))}),
    ("CLAIM2_3", "NUMERIC"): (_claim23_numeric, {"s": (2.0, _ABOVE_ONE), "tol": _TOL}),
    ("CLAIM2_3", "PROBE"): (_claim23_probe, {"tol": _TOL, "eps_grid": _PROBE_EPS}),
    ("CLAIM4", "NUMERIC"): (_claim4, {"s": (2.0, _ABOVE_ONE), "tol": _TOL, "depth": _DEPTH}),
    ("MIGOTTI_REMARK", "SYMBOLIC"): (
        _migotti, {"max_n": (200, _count_to(cyclotomic._MAX_N, "cyclotomic domain"))}),
}


def cmd_check(claim_id: str, mode: str | None, options: dict) -> ClaimReport:
    """Run one claim-check pipeline and return its validated report.

    options keys (all optional): the names in _CHECK_FLAGS, with the
    strings argparse passes or numbers as values; the report's parameters
    are the claim, the mode, by default the claim's first, and the
    parameters its entry declares.  A claim or mode report.CHECKS does
    not list, an option the pipeline does not use, or out-of-domain
    parameter values raise UsageError.  The verdict is verdict_of's
    reading of the evidence; a precision shortfall inside a pipeline, or
    a radical fold that leaves the reals, is evidence it reads as INCONCLUSIVE.
    """
    claim_id = claim_id.upper()
    if claim_id not in CHECKS:
        raise UsageError(f"unknown claim {claim_id!r}")
    mode = mode.upper() if mode else CHECKS[claim_id][0]
    if mode not in CHECKS[claim_id]:
        raise UsageError(f"{claim_id} supports modes {'/'.join(CHECKS[claim_id])}, not {mode}")
    pipeline, declared = _PIPELINES[claim_id, mode]
    params = {"claim": claim_id, "mode": mode,
              **_used_options(f"{claim_id} [{mode}]", declared, options, _CHECK_FLAGS)}

    try:
        evidence = pipeline(params)
    except zeta.PrecisionError as exc:
        evidence = [_reason(str(exc))]
    except radical.NegativeRadicandError as exc:
        # where the radical stops being real is a finding, not bad input
        evidence = [{"name": "negative_radicand", "level": exc.level,
                     "radicand": _r(exc.radicand)}]
    return ClaimReport(claim_id, mode, verdict_of(mode, evidence), params, evidence)


# ---------------------------------------------------------------- table
#
# A table takes the converted parameters its entry declares and returns
# (columns, rows, summary): rows are dicts of raw values, summary a closing
# line or None; cmd_table renders them.


def _rows_by_s(s_values: list[float], columns: list[str], row_at) -> tuple[list, list]:
    # one row per s, columns zipped with row_at(s), and the distinct failure
    # reasons: a precision shortfall at one s fails that row only, as in table probe
    rows = []
    for s in s_values:
        try:
            rows.append(dict(zip(columns, row_at(s))))
        except zeta.PrecisionError as exc:
            rows.append({"s": s, "error": str(exc)})
    return rows, list(dict.fromkeys(row["error"] for row in rows if "error" in row))


def _value_table(evaluate, params: dict):
    columns = ["s", "value", "error_bound"]
    rows, reasons = _rows_by_s(params["s"], columns, lambda s: (s, *evaluate(s, params["tol"])))
    return columns, rows, "\n".join(reasons) or None


def _cyclotomic_table(params: dict):
    # deg Phi_n = phi(n), read off n's factorization over cyclotomic's own
    # 10^4 sieve; the height comes from the Phi of n's odd squarefree kernel,
    # one construction shared by every n with the same odd primes
    table = cyclotomic._table()
    rows = [{"n": n, "degree": arith.factorize(n, table).totient, "height": cyclotomic_height(n)}
            for n in params["n"]]
    return ["n", "degree", "height"], rows, None


def _probe_table(params: dict):
    rows = list(map(_probe_dict, zeta.singularity_probe(params["eps"], params["tol"])))
    return ["eps", "lhs", "lhs_error_bound", "rhs", "rhs_error_bound", "note"], rows, None


def _radical_table(params: dict):
    columns = ["n", "zero_tail_gap", "one_tail_gap"]
    try:
        report = radical.convergence_report(params["s"], params["depth"])
    except radical.NegativeRadicandError as exc:
        # no reference value, so no gaps; as in the radical claim's check,
        # where the fold leaves the reals is the finding
        return columns, [], (
            f"no gaps: the depth-{params['depth']} ONE_TAIL reference fold leaves "
            f"the reals at level {exc.level} (radicand {_fmt_value(exc.radicand)})"
        )
    except zeta.PrecisionError as exc:  # the reference fold cannot be evaluated
        return columns, [], f"no gaps: {exc}"
    return columns, [dict(zip(columns, row)) for row in report], None


def _radical_domain_table(params: dict):
    columns = ["s", "all_radicands_positive", "failing_level"]
    rows, reasons = _rows_by_s(params["s"], columns,
                               lambda s: radical.domain_scan(s, params["depth"]))
    valid = [row["s"] for row in rows if row.get("all_radicands_positive")]
    summary = (
        f"smallest grid s with all ONE_TAIL radicands positive: {_fmt_value(min(valid))}"
        if valid
        else "no grid s kept all ONE_TAIL radicands positive"
    )
    # with no row evaluated there is no domain finding, only the reasons
    evaluated = any("error" not in row for row in rows)
    return columns, rows, "\n".join([summary, *reasons] if evaluated else reasons)


# the flags a table accepts, in --help and usage-error order, with their
# help, and selector -> (table, each parameter it reads, in report order,
# with its default and the converter that parses the typed string); the
# zeta functions are looked up at each call, so a rebinding of them is seen too
_TABLE_FLAGS = {"s": "comma-separated s values", "n": "n range, e.g. 1..120 or 3,5,105",
                "eps": "eps grid, e.g. 1e-2..1e-5", "depth": "radical depth",
                "tol": "error-bound target"}
_TABLES = {
    "zeta": (lambda p: _value_table(zeta.zeta_real, p), {"tol": _TOL, "s": ("2,3,4", _s_list)}),
    "prime-zeta": (lambda p: _value_table(zeta.prime_zeta, p),
                   {"tol": _TOL, "s": ("2,3,4", _s_list)}),
    "cyclotomic-height": (_cyclotomic_table, {"n": ("1..120", _n_range)}),
    "probe": (_probe_table, {"tol": _TOL, "eps": _PROBE_EPS}),
    "radical": (_radical_table, {"s": ("2", _one_s), "depth": _DEPTH}),
    "radical-domain": (_radical_domain_table,
                       {"s": ("1.05,1.1,1.2,1.3,1.4,1.5,1.6,1.8,2,3", _s_list),
                        "depth": _DEPTH}),
}


def _json_row(row: dict) -> dict:
    # floats at report precision; an infinite gap (no such truncation) is null
    return {k: (None if math.isinf(v) else _r(v)) if isinstance(v, float) else v
            for k, v in row.items()}


def _text_cell(row: dict, column: str) -> str:
    # a failed probe row's reason shows in the note column
    v = row.get(column, row.get("error") if column == "note" else None)
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return _fmt_value(v)


def _text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(headers)]
    def render(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([render(headers)] + [render(r) for r in rows])


def cmd_table(selector: str, options: dict) -> str:
    """Build one deterministic table (text or structured) from the options it reads."""
    if selector not in _TABLES:
        raise UsageError(f"unknown table selector {selector!r}")
    table, declared = _TABLES[selector]
    params = _used_options(selector, declared, options, _TABLE_FLAGS)
    columns, rows, summary = table(params)

    if options.get("format") == "structured":
        import json

        payload = {"table": selector, "parameters": params, "rows": list(map(_json_row, rows))}
        if summary is not None:
            payload["summary"] = summary
        return json.dumps(payload, indent=2)
    text = _text_table(
        [c.replace("_error_bound", "_bound") for c in columns],
        [[_text_cell(row, c) for c in columns] for row in rows],
    )
    return text if summary is None else text + "\n" + summary


# ----------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pzcheck",
        description="Falsification checks for claimed prime-zeta identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a claim check and print its report")
    check.add_argument("claim", choices=[c.lower() for c in CHECKS], help="claim to check")
    modes = dict.fromkeys(m.lower() for claim_modes in CHECKS.values() for m in claim_modes)
    check.add_argument("--mode", choices=list(modes))  # in first-seen order
    table = sub.add_parser("table", help="print an evaluation table")
    table.add_argument("selector", choices=list(_TABLES))
    for command, flags in ((check, _CHECK_FLAGS), (table, _TABLE_FLAGS)):
        for key, text in flags.items():
            command.add_argument("--" + key.replace("_", "-"), help=text)
        command.add_argument("--format", choices=["text", "structured"], default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            report = cmd_check(args.claim, args.mode, vars(args))
            print(emit_report(report, args.format))
        else:
            print(cmd_table(args.selector, vars(args)))
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; the exit-time flush goes to devnull, not stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0
