"""Command-line front end: claim checks and evaluation tables.

    pzcheck check <claim> [--mode symbolic|numeric|probe] [--s S]
                  [--max-n N] [--tol T] [--depth D] [--format text|structured]
    pzcheck table <selector> [--s LIST] [--n RANGE] [--eps RANGE]
                  [--depth D] [--tol T] [--format text|structured]

Exit status encodes run success (0), a closed standard output (1) or
usage error (2), never the mathematical verdict: REFUTED is a result,
not a failure, so scripted pipelines can consume reports without error
handling.  Structured output is one UTF-8 JSON object with stable key
order; identical invocations produce byte-identical output.  A check's
report, its validation and its rendering live in pzcheck.report.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import arith, cyclotomic, dirichlet, radical, zeta
from .cyclotomic import cyclotomic as cyclotomic_poly
from .cyclotomic import height as cyclotomic_height
from .report import (CLAIM_IDS, MODES, ClaimReport, _by_bound, _discrepancy, _eval_fact,
                     _fmt_value, _mismatch_fact, _r, _refutes, emit_report)

_SERIES_MAX_N = 10**6  # exact claim2_3 series; 10^6 already takes seconds and ~100 MB


class UsageError(ValueError):
    """Bad flags, ranges, or claim/mode combinations (exit status 2)."""


def _finite_above(low: float):
    # converter to a finite float above low, rounded as reported
    def convert(v: float) -> float:
        rounded = _r(v)  # rounding can carry the largest doubles to infinity
        if not math.isfinite(rounded):
            raise ValueError(f"rounds to infinity at 15 significant digits, got {v}"
                             if math.isfinite(v) else f"must be finite, got {v}")
        if not rounded > low:
            raise ValueError(f"must be > {low:g}, got {v}")
        return rounded
    return convert


_POSITIVE, _ABOVE_ONE = _finite_above(0.0), _finite_above(1.0)


def _count_to(most: int, domain: str):
    # converter to an int in [1, most]; the cap's message names its domain
    def convert(n: int) -> int:
        if int(n) < 1:
            raise ValueError(f"must be >= 1, got {n}")
        if int(n) > most:
            raise ValueError(f"must be <= {most} ({domain}), got {int(n)}")
        return int(n)
    return convert


def _depth(depth: int) -> int:
    if not 1 <= depth <= radical._MAX_DEPTH:
        raise ValueError(f"must be in [1, {radical._MAX_DEPTH}], got {depth}")
    return depth


def _parse_list(spec: str, flag: str, kind=float) -> list:
    try:
        values = [kind(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag} list {spec!r}") from exc
    if not values:
        raise UsageError(f"empty {flag} list")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} list {spec!r} has a non-finite value")
    return values


def _s_list(spec: str) -> list[float]:
    return [_ABOVE_ONE(s) for s in _parse_list(spec, "--s")]


def _one_s(spec: str) -> float:
    s, *others = _s_list(spec)
    if others:
        raise UsageError("radical table takes exactly one --s value")
    return s


def _n_range(spec: str) -> list[int]:
    # the bounds are checked before a range is expanded into a list
    if ".." not in spec:
        values = _parse_list(spec, "--n", int)
        lo, hi = min(values), max(values)
    else:
        try:
            lo, hi = map(int, spec.split("..", 1))
        except ValueError as exc:
            raise UsageError(f"bad --n range {spec!r}") from exc
        if hi < lo:
            raise UsageError(f"--n range {spec!r} is reversed")
        values = range(lo, hi + 1)
    if lo < 1 or hi > cyclotomic._MAX_N:
        raise UsageError(f"--n must lie in [1, {cyclotomic._MAX_N}], got {spec}")
    return list(values)


def _eps_grid(spec: str) -> list[float]:
    # "1e-2..1e-5" walks down a decade at a time; commas list explicitly
    if ".." not in spec:
        return [_r(e) for e in _parse_list(spec, "--eps")]
    try:
        start, end = map(float, spec.split("..", 1))
        hi, lo = round(math.log10(start)), round(math.log10(end))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad --eps range {spec!r}") from exc
    if not (math.isclose(start, 10.0**hi) and math.isclose(end, 10.0**lo) and lo <= hi):
        raise UsageError(f"--eps range {spec!r} must run from a larger to a smaller power of 10")
    return [_r(10.0**k) for k in range(hi, lo - 1, -1)]


_PROBE_EPS = ("1e-2..1e-5", _eps_grid)  # the probe table's default, the probe check's grid


def _used_options(label: str, declared: dict, options: dict, flags: tuple) -> dict:
    """The entry's parameters in report order, converted from their flags or defaults
    (a parameter with no flag keeps its default); others or bad values raise UsageError."""
    unused = ["--" + key.replace("_", "-") for key in flags
              if options.get(key) is not None and key not in declared]
    if unused:
        raise UsageError(f"{label} does not use {', '.join(unused)}")
    used = {}
    for key, (default, convert) in declared.items():
        value = options.get(key) if key in flags else None
        try:
            used[key] = convert(default if value is None else value)
        except UsageError:  # a list parser's message names its flag already
            raise
        except ValueError as exc:
            raise UsageError(f"--{key.replace('_', '-')} {exc}") from exc
    return used


# ---------------------------------------------------------------- check
#
# A pipeline takes the converted parameters and returns (verdict,
# evidence); cmd_check wraps that into one validated ClaimReport.


def _probe_dict(row: zeta.ProbeRow, suffix: str = "") -> dict:
    # raw values of one probe row; a failed row keeps only its reason
    if row.lhs is None:
        return {"eps": row.eps, "error": row.note}
    return {"eps": row.eps, "lhs" + suffix: row.lhs.value,
            "lhs_error_bound": row.lhs.error_bound, "rhs" + suffix: row.rhs.value,
            "rhs_error_bound": row.rhs.error_bound, "note": row.note}


def _mismatch_scan(lhs: dirichlet.DirichletSeries, rhs: dirichlet.DirichletSeries,
                   table: arith.PrimeTable) -> dict:
    """The mismatch_scan fact of the two claim series, truncated to N.

    all_mismatches_have_three_distinct_primes is true only when the
    indices where the series differ are exactly the squarefree m <= N
    with at least three distinct prime factors, the set the paper
    names.  Squarefreeness and omega come from one pass over the
    sieve's smallest_factor.
    """
    n = lhs.truncation
    spf = table.smallest_factor
    # omega[m] counts the primes of a squarefree m; -1 marks a square factor
    omega = [0] * (n + 1)
    for m in range(2, n + 1):
        p = spf[m]
        rest = m // p
        omega[m] = -1 if spf[rest] == p or omega[rest] < 0 else omega[rest] + 1
    pairs = zip(lhs.coefficients(), rhs.coefficients())
    mismatches = [m for m, (a, b) in enumerate(pairs, 1) if a != b]
    return {
        "name": "mismatch_scan",
        "truncation": n,
        "mismatch_count": len(mismatches),
        "all_mismatches_have_three_distinct_primes":
            mismatches == [m for m in range(1, n + 1) if omega[m] >= 3],
    }


def _claim23_symbolic(params: dict) -> tuple[str, list]:
    n = params["max_n"]
    table = arith.sieve(max(n, 2))
    lhs = dirichlet.claim_lhs_series(n)
    rhs = dirichlet.claim_rhs_series(n, table)
    hit = dirichlet.first_mismatch(lhs, rhs)
    if hit is None:
        return "CONSISTENT", [{"name": "coefficient_agreement", "truncation": n, "exact": True}]
    return "REFUTED", [_mismatch_fact("first_mismatch", *hit), _mismatch_scan(lhs, rhs, table)]


def _claim23_numeric(params: dict) -> tuple[str, list]:
    lhs = zeta.claim_lhs(params["s"])
    rhs = zeta.claim_rhs(params["s"], params["tol"])
    diff = _discrepancy("difference", lhs, rhs)
    evidence = [_eval_fact("lhs", lhs), _eval_fact("rhs", rhs), diff]
    return _by_bound(diff, evidence, "difference within combined error bounds at this s")


def _claim23_probe(params: dict) -> tuple[str, list]:
    rows = zeta.singularity_probe(params["eps_grid"], params["tol"])
    evidence = [
        {"name": "probe_row", **_json_row(_probe_dict(row, "_value"))} for row in rows
    ]
    good = [r for r in rows if r.lhs is not None and not r.note]
    if len(good) != len(rows):
        return "INCONCLUSIVE", evidence + [
            {"name": "reason", "detail": "precision failure on probe rows"}
        ]

    lhs_vals = [r.lhs.value for r in good]
    rhs_vals = [r.rhs.value for r in good]
    lhs_decreasing = all(a > b > 0.0 for a, b in zip(lhs_vals, lhs_vals[1:]))
    rhs_increasing = all(a < b for a, b in zip(rhs_vals, rhs_vals[1:]))
    fit = zeta.fit_log_quadratic(rows)
    last = good[-1]
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
    if (lhs_decreasing and rhs_increasing and fit.leading > 0.0 and fit.rel_residual < 0.1
            and divergence["exceeds_bound"]):
        return "REFUTED", evidence
    return "INCONCLUSIVE", evidence + [{"name": "reason", "detail": "probe shape checks failed"}]


def _claim4(params: dict) -> tuple[str, list]:
    depth = params["depth"]
    result = radical.claim4_check(params["s"], depth, params["tol"])
    gap = _discrepancy("gap", result.radical_value, result.prime_zeta_value)

    # exact-series leg: squaring the radical identity must land on the
    # claimed identity's coefficient structure, sharing its mismatch
    n = 100
    table = arith.sieve(n)
    lhs = dirichlet.claim_lhs_series(n)  # 2/zeta(s)
    rhs = dirichlet.claim_rhs_series(n, table)
    p = dirichlet.prime_zeta_series(n, table)
    delta = dirichlet.unit_series(n)
    one_minus_p = dirichlet.linear_combine([(1, delta), (-1, p)])
    squared = dirichlet.convolve(one_minus_p, one_minus_p)
    structure_ok = dirichlet.linear_combine(
        [(1, squared), (1, delta), (-1, dirichlet.dilate(p, 2, n))]
    ) == rhs

    evidence = [
        _eval_fact("radical_side", result.radical_value, depth=depth),
        _eval_fact("prime_zeta_side", result.prime_zeta_value),
        gap,
        {"name": "squared_form_equals_claim_form", "truncation": n, "equal": structure_ok},
        _mismatch_fact("series_mismatch", *dirichlet.first_mismatch(lhs, rhs)),
    ]
    return _by_bound(gap, evidence, "gap within combined error bounds")


def _migotti(params: dict) -> tuple[str, list]:
    limit = params["max_n"]
    phi105 = cyclotomic_poly(105)
    # cross-check the one-byte height against the two-byte Phi_105, read
    # back from cyclotomic's one-entry cache
    h105 = cyclotomic_height(105)
    if h105 != max(map(abs, cyclotomic_poly(105).coeffs)):
        raise ArithmeticError(f"packed height {h105} of Phi_105 disagrees with its coefficients")
    # odd_omega[m], m's distinct odd primes, from m / spf[m] in one pass
    # over cyclotomic's own 10^4 sieve, so that only cyclotomic_height factors n
    spf = cyclotomic._table().smallest_factor
    odd_omega = [0, 0]
    for m in range(2, limit + 1):
        p, rest = spf[m], m // spf[m]
        odd_omega.append(odd_omega[rest] + (p != 2 and spf[rest] != p))
    eligible = [n for n in range(1, limit + 1) if odd_omega[n] <= 2]
    violations = [n for n in eligible if cyclotomic_height(n) != 1]
    evidence = [
        {
            "name": "phi_105_coefficients",
            "degree_7": phi105.coefficient(7),
            "degree_41": phi105.coefficient(41),
            "height": h105,
            "exact": True,
        },
        {
            "name": "migotti_bound",
            "scan_limit": limit,
            "eligible_count": len(eligible),
            "all_heights_one": not violations,
            "exact": True,
        },
    ]
    if violations:
        evidence.append({"name": "violations", "indices": violations[:10]})
    # report's rule: a Phi_105 coefficient other than -2, or a counterexample
    return "REFUTED" if any(map(_refutes, evidence)) else "CONSISTENT", evidence


# the flags a check accepts, in usage-error order, and claim -> mode ->
# (pipeline, each parameter it reads after claim and mode, in report order,
# with its default and converter); the first mode listed is the claim's default
_CHECK_FLAGS = ("s", "max_n", "tol", "depth")
_PIPELINES = {
    "CLAIM2_3": {
        "SYMBOLIC": (_claim23_symbolic,
                     {"max_n": (10**4, _count_to(_SERIES_MAX_N, "exact series work"))}),
        "NUMERIC": (_claim23_numeric, {"s": (2.0, _ABOVE_ONE), "tol": (1e-12, _POSITIVE)}),
        "PROBE": (_claim23_probe, {"tol": (1e-12, _POSITIVE), "eps_grid": _PROBE_EPS}),
    },
    "CLAIM4": {"NUMERIC": (_claim4, {"s": (2.0, _ABOVE_ONE), "tol": (1e-12, _POSITIVE),
                                     "depth": (20, _depth)})},
    "MIGOTTI_REMARK": {"SYMBOLIC": (
        _migotti, {"max_n": (200, _count_to(cyclotomic._MAX_N, "cyclotomic domain"))})},
}


def cmd_check(claim_id: str, mode: str | None, options: dict) -> ClaimReport:
    """Run one claim-check pipeline and return its validated report.

    options keys (all optional): the names in _CHECK_FLAGS; the report's
    parameters are the claim, the mode and the parameters the pipeline's
    entry declares.  Unknown claim, unsupported claim/mode pairing, an
    option the pipeline does not use, or out-of-domain parameter values
    raise UsageError; precision shortfalls inside a pipeline, and a
    radical fold that leaves the reals, make the verdict INCONCLUSIVE
    instead of raising.
    """
    claim_id = claim_id.upper()
    if claim_id not in _PIPELINES:
        raise UsageError(f"unknown claim {claim_id!r}")
    pipelines = _PIPELINES[claim_id]
    mode = mode.upper() if mode else next(iter(pipelines))
    if mode not in pipelines:
        raise UsageError(f"{claim_id} supports modes {'/'.join(pipelines)}, not {mode}")
    pipeline, declared = pipelines[mode]
    params = {"claim": claim_id, "mode": mode,
              **_used_options(f"{claim_id} [{mode}]", declared, options, _CHECK_FLAGS)}

    try:
        verdict, evidence = pipeline(params)
    except zeta.PrecisionError as exc:
        verdict, evidence = "INCONCLUSIVE", [{"name": "reason", "detail": str(exc)}]
    except radical.NegativeRadicandError as exc:
        # where the radical stops being real is a finding, not bad input
        verdict = "INCONCLUSIVE"
        evidence = [{"name": "negative_radicand", "level": exc.level,
                     "radicand": _r(exc.radicand)}]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ClaimReport(claim_id, mode, verdict, params, evidence)


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
    n_values = params["n"]
    # deg Phi_n = phi(n), from phi(m / spf[m]) in one pass over cyclotomic's
    # own 10^4 sieve as in _migotti; the height comes from the Phi of n's odd
    # squarefree kernel, one construction shared by every n with the same odd primes
    spf = cyclotomic._table().smallest_factor
    totient = [0, 1]
    for m in range(2, max(n_values) + 1):
        p, rest = spf[m], m // spf[m]
        totient.append(totient[rest] * (p if spf[rest] == p else p - 1))
    rows = [{"n": n, "degree": totient[n], "height": cyclotomic_height(n)} for n in n_values]
    return ["n", "degree", "height"], rows, None


def _probe_table(params: dict):
    try:
        rows = list(map(_probe_dict, zeta.singularity_probe(params["eps"], params["tol"])))
    except ValueError as exc:  # its grid check; a row's PrecisionError becomes its note
        raise ValueError("--eps " + str(exc).removeprefix("probe eps ")) from exc
    return ["eps", "lhs", "lhs_error_bound", "rhs", "rhs_error_bound", "note"], rows, None


def _radical_table(params: dict):
    columns = ["n", "zero_tail_gap", "one_tail_gap"]
    try:
        report = radical.convergence_report(params["s"], params["depth"])
    except radical.NegativeRadicandError as exc:
        # no reference value, so no gaps; as in check claim4, where the
        # fold leaves the reals is the finding
        return columns, [], (
            f"no gaps: the depth-{params['depth']} ONE_TAIL reference fold leaves "
            f"the reals at level {exc.level} (radicand {exc.radicand:.15g})"
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
        f"smallest grid s with all ONE_TAIL radicands positive: {min(valid):.15g}"
        if valid
        else "no grid s kept all ONE_TAIL radicands positive"
    )
    # with no row evaluated there is no domain finding, only the reasons
    evaluated = any("error" not in row for row in rows)
    return columns, rows, "\n".join([summary, *reasons] if evaluated else reasons)


# the flags a table accepts, in usage-error order, and selector -> (table,
# each parameter it reads, in report order, with its default and converter);
# the zeta functions are looked up at each call, so a rebinding of them is seen too
_TABLE_FLAGS = ("tol", "s", "n", "eps", "depth")
_TABLES = {
    "zeta": (lambda p: _value_table(zeta.zeta_real, p),
             {"tol": (1e-12, _POSITIVE), "s": ("2,3,4", _s_list)}),
    "prime-zeta": (lambda p: _value_table(zeta.prime_zeta, p),
                   {"tol": (1e-12, _POSITIVE), "s": ("2,3,4", _s_list)}),
    "cyclotomic-height": (_cyclotomic_table, {"n": ("1..120", _n_range)}),
    "probe": (_probe_table, {"tol": (1e-12, _POSITIVE), "eps": _PROBE_EPS}),
    "radical": (_radical_table, {"s": ("2", _one_s), "depth": (20, _depth)}),
    "radical-domain": (_radical_domain_table,
                       {"s": ("1.05,1.1,1.2,1.3,1.4,1.5,1.6,1.8,2,3", _s_list),
                        "depth": (20, _depth)}),
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
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def render(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([render(headers)] + [render(r) for r in rows])


def cmd_table(selector: str, options: dict) -> str:
    """Build one deterministic table (text or structured) from the options it reads."""
    if selector not in _TABLES:
        raise UsageError(f"unknown table selector {selector!r}")
    table, declared = _TABLES[selector]
    params = _used_options(selector, declared, options, _TABLE_FLAGS)
    try:
        columns, rows, summary = table(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

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
    check.add_argument("claim", choices=[c.lower() for c in CLAIM_IDS], help="claim to check")
    check.add_argument("--mode", choices=[m.lower() for m in MODES])
    check.add_argument("--s", type=float, help="evaluation point")
    check.add_argument("--max-n", type=int, dest="max_n", help="series truncation / scan limit")
    check.add_argument("--tol", type=float, help="error-bound target")
    check.add_argument("--depth", type=int, help="radical depth")
    check.add_argument("--format", choices=["text", "structured"], default="text")

    table = sub.add_parser("table", help="print an evaluation table")
    table.add_argument("selector", choices=list(_TABLES))
    table.add_argument("--s", help="comma-separated s values")
    table.add_argument("--n", help="n range, e.g. 1..120 or 3,5,105")
    table.add_argument("--eps", help="eps grid, e.g. 1e-2..1e-5")
    table.add_argument("--depth", type=int, help="radical depth")
    table.add_argument("--tol", type=float, help="error-bound target")
    table.add_argument("--format", choices=["text", "structured"], default="text")
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
