"""Command-line front end: claim checks and evaluation tables.

    pzcheck check <claim> [--mode symbolic|numeric|probe] [--s S]
                  [--max-n N] [--tol T] [--depth D] [--format text|structured]
    pzcheck table <selector> [--s LIST] [--n RANGE] [--eps RANGE]
                  [--depth D] [--tol T] [--format text|structured]

Exit status encodes run success (0), a closed standard output (1) or
usage error (2), never the mathematical verdict: REFUTED is a result,
not a failure, so scripted pipelines can consume reports without error
handling.  Structured output is one UTF-8 JSON object with stable key
order; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from . import arith, cyclotomic, dirichlet, radical, zeta
from .cyclotomic import cyclotomic as cyclotomic_poly
from .cyclotomic import height as cyclotomic_height

VERDICTS = ("REFUTED", "CONSISTENT", "INCONCLUSIVE")

_DEFAULT_EPS = (1e-2, 1e-3, 1e-4, 1e-5)
_SERIES_MAX_N = 10**6  # exact claim2_3 series; 10^6 already takes seconds and ~100 MB


class UsageError(ValueError):
    """Bad flags, ranges, or claim/mode combinations (exit status 2)."""


def _r(v: float) -> float:
    # report floats at 15 significant digits; stored == printed, so
    # structured reports round-trip exactly
    return float(f"{v:.15g}")


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


def _count(n: int) -> int:
    if int(n) < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return int(n)


def _depth(depth: int) -> int:
    if not 1 <= depth <= radical._MAX_DEPTH:
        raise ValueError(f"must be in [1, {radical._MAX_DEPTH}], got {depth}")
    return depth


def _used_options(label: str, defaults: dict, options: dict, converters: dict) -> dict:
    """The entry's options, converted in report order; others or bad values raise UsageError."""
    unused = ["--" + key.replace("_", "-") for key in converters
              if options.get(key) is not None and key not in defaults]
    if unused:
        raise UsageError(f"{label} does not use {', '.join(unused)}")
    used = {}
    for key, convert in converters.items():
        if key in defaults:
            try:
                used[key] = convert(defaults[key] if options.get(key) is None else options[key])
            except UsageError:  # a list parser's message names its flag already
                raise
            except ValueError as exc:
                raise UsageError(f"--{key.replace('_', '-')} {exc}") from exc
    return used


def _bound_agrees(fact: dict) -> bool:
    # a fact that carries its gap and bound must report their comparison
    if "exceeds_bound" not in fact or "combined_error_bound" not in fact:
        return True
    gap = fact.get("difference", fact.get("value"))
    try:
        return (gap > fact["combined_error_bound"]) is fact["exceeds_bound"]
    except TypeError:
        return False


def _refutes(fact: dict) -> bool:
    # the fact itself must record the disagreement: a gap beyond its
    # bound (with both numbers, which _bound_agrees has compared),
    # unequal exact coefficients, or a Migotti counterexample
    gap = "value" in fact or "difference" in fact
    if fact.get("exceeds_bound") is True and gap and "combined_error_bound" in fact:
        return True
    if fact.get("exact") is not True:
        return False
    if "lhs_coefficient" in fact:
        return fact["lhs_coefficient"] != fact.get("rhs_coefficient")
    return fact.get("all_heights_one") is False or any(
        fact.get(key, -2) != -2 for key in ("degree_7", "degree_41")
    )


class ClaimReport(namedtuple("ClaimReport", "claim_id mode verdict parameters evidence")):
    """Structured verdict: claim, mode, verdict, evidence, parameters.

    A REFUTED verdict must be carried by at least one evidence fact
    that records a disagreement: a discrepancy whose gap exceeds the
    combined error bound it carries, or an exact fact whose own entries
    contradict the claim.  Every fact that carries exceeds_bound with
    its numbers must agree with them.  validate() enforces both, and
    the shapes emit_report renders, on every path that builds a report:
    the constructor, _make, _replace, unpickling and parse_report.
    """

    __slots__ = ()

    def __new__(cls, claim_id: str, mode: str, verdict: str,
                parameters: dict | None = None, evidence: list | None = None):
        # each report gets its own empty parameters and evidence
        return super().__new__(cls, claim_id, mode, verdict,
                               {} if parameters is None else parameters,
                               [] if evidence is None else evidence).validate()

    @classmethod
    def _make(cls, iterable):  # namedtuple's arity check, then __new__'s; _replace builds here
        return cls(*super()._make(iterable))

    def __reduce__(self):  # protocols 0 and 1 too unpickle through __new__
        return type(self), tuple(self)

    def validate(self) -> "ClaimReport":
        if self.claim_id not in CLAIM_IDS:
            raise ValueError(f"unknown claim_id {self.claim_id!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not isinstance(self.parameters, dict) or not isinstance(self.evidence, list):
            raise ValueError("parameters must be a dict and evidence a list")
        for fact in self.evidence:
            if not isinstance(fact, dict) or not isinstance(fact.get("name"), str):
                raise ValueError(f"evidence fact {fact!r} is not a dict with a string name")
            if not _bound_agrees(fact):
                raise ValueError(
                    f"fact {fact['name']!r}: exceeds_bound disagrees with "
                    "its own gap and combined error bound"
                )
        if self.verdict == "REFUTED" and not any(map(_refutes, self.evidence)):
            raise ValueError(
                "REFUTED verdict without an exact mismatch or a "
                "discrepancy exceeding its combined error bound"
            )
        return self


def emit_report(report: ClaimReport, fmt: str) -> str:
    if fmt == "structured":
        import json  # json loads only for structured output

        return json.dumps(report._asdict(), indent=2)
    lines = [
        f"claim   : {report.claim_id} [{report.mode}]",
        f"verdict : {report.verdict}",
        "parameters: "
        + " ".join(f"{k}={_fmt_value(v)}" for k, v in report.parameters.items()),
        "evidence:",
    ]
    for fact in report.evidence:
        rest = " ".join(
            f"{k}={_fmt_value(v)}" for k, v in fact.items() if k != "name"
        )
        lines.append(f"  - {fact['name']}: {rest}")
    return "\n".join(lines)


def parse_report(text: str) -> ClaimReport:
    """Inverse of emit_report(..., "structured"); a malformed report raises ValueError."""
    import json

    payload = json.loads(text)
    if not isinstance(payload, dict) or not payload.keys() >= set(ClaimReport._fields):
        raise ValueError(f"not a structured report: {text[:60]!r}")
    return ClaimReport(*map(payload.get, ClaimReport._fields))


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    return str(v)


# ---------------------------------------------------------------- check
#
# A pipeline takes the normalized parameters and returns (verdict,
# evidence); cmd_check wraps that into one validated ClaimReport.


def _eval_fact(name: str, ev: zeta.EvalResult, **extra) -> dict:
    fact = {"name": name, "value": _r(ev.value), "error_bound": _r(ev.error_bound)}
    fact.update(extra)
    return fact


def _discrepancy(name: str, a: zeta.EvalResult, b: zeta.EvalResult, key: str = "value",
                 **extra) -> dict:
    # the one place two bounded values are compared: gap against summed bounds
    gap, bound = _r(abs(a.value - b.value)), _r(a.error_bound + b.error_bound)
    return {"name": name, **extra, key: gap, "combined_error_bound": bound,
            "exceeds_bound": gap > bound}


def _mismatch_fact(name: str, index: int, a, b) -> dict:
    return {"name": name, "index": index, "lhs_coefficient": str(a),
            "rhs_coefficient": str(b), "exact": True}


def _by_bound(discrepancy: dict, evidence: list, reason: str) -> tuple[str, list]:
    if discrepancy["exceeds_bound"]:
        return "REFUTED", evidence
    return "INCONCLUSIVE", evidence + [{"name": "reason", "detail": reason}]


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
    if n > _SERIES_MAX_N:
        raise UsageError(f"--max-n must be <= {_SERIES_MAX_N} (exact series work), got {n}")
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
    params["eps_grid"] = [_r(e) for e in _DEFAULT_EPS]
    rows = zeta.singularity_probe(list(params["eps_grid"]), params["tol"])
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
    if limit > cyclotomic._MAX_N:
        raise UsageError(f"--max-n must be <= {cyclotomic._MAX_N} (cyclotomic domain), got {limit}")
    phi105 = cyclotomic_poly(105)
    c7, c41 = phi105.coefficient(7), phi105.coefficient(41)
    # cross-check the packed height against the slice-built Phi_105, read
    # back from cyclotomic's one-entry cache
    h105 = cyclotomic_height(105)
    if h105 != max(map(abs, cyclotomic_poly(105).coeffs)):
        raise ArithmeticError(f"packed height {h105} of Phi_105 disagrees with its coefficients")
    # odd_omega[m], m's distinct odd primes, from m / spf[m] in one pass
    # over the sieve, so that only cyclotomic_height factors n
    spf = arith.sieve(max(limit, 2)).smallest_factor
    odd_omega = [0, 0]
    for m in range(2, limit + 1):
        p, rest = spf[m], m // spf[m]
        odd_omega.append(odd_omega[rest] + (p != 2 and spf[rest] != p))
    eligible = [n for n in range(1, limit + 1) if odd_omega[n] <= 2]
    violations = [n for n in eligible if cyclotomic_height(n) != 1]
    evidence = [
        {
            "name": "phi_105_coefficients",
            "degree_7": c7,
            "degree_41": c41,
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
    ok = c7 == -2 and c41 == -2 and not violations
    return "CONSISTENT" if ok else "REFUTED", evidence


# every option a check can use, in report order, with its converter
_CHECK_OPTIONS = {"s": _ABOVE_ONE, "max_n": _count, "tol": _POSITIVE, "depth": _depth}

# claim -> mode -> (pipeline, the options it uses with their defaults);
# the first mode listed is the claim's default
_PIPELINES = {
    "CLAIM2_3": {
        "SYMBOLIC": (_claim23_symbolic, {"max_n": 10**4}),
        "NUMERIC": (_claim23_numeric, {"s": 2.0, "tol": 1e-12}),
        "PROBE": (_claim23_probe, {"tol": 1e-12}),
    },
    "CLAIM4": {"NUMERIC": (_claim4, {"s": 2.0, "tol": 1e-12, "depth": 20})},
    "MIGOTTI_REMARK": {"SYMBOLIC": (_migotti, {"max_n": 200})},
}
CLAIM_IDS = tuple(_PIPELINES)
MODES = tuple(dict.fromkeys(mode for modes in _PIPELINES.values() for mode in modes))


def cmd_check(claim_id: str, mode: str | None, options: dict) -> ClaimReport:
    """Run one claim-check pipeline and return its validated report.

    options keys (all optional): s, max_n, tol, depth; the report's
    parameters are the claim, the mode and the options the pipeline
    uses.  Unknown claim, unsupported claim/mode pairing, an option the
    pipeline does not use, or out-of-domain parameter values raise
    UsageError; precision shortfalls inside a pipeline, and a radical
    fold that leaves the reals, make the verdict INCONCLUSIVE instead
    of raising.
    """
    claim_id = claim_id.upper()
    if claim_id not in _PIPELINES:
        raise UsageError(f"unknown claim {claim_id!r}")
    pipelines = _PIPELINES[claim_id]
    mode = mode.upper() if mode else next(iter(pipelines))
    if mode not in pipelines:
        raise UsageError(
            f"{claim_id} supports modes {'/'.join(pipelines)}, not {mode}"
        )
    pipeline, defaults = pipelines[mode]
    params = {"claim": claim_id, "mode": mode,
              **_used_options(f"{claim_id} [{mode}]", defaults, options, _CHECK_OPTIONS)}

    try:
        verdict, evidence = pipeline(params)
    except zeta.PrecisionError as exc:
        verdict, evidence = "INCONCLUSIVE", [{"name": "reason", "detail": str(exc)}]
    except radical.NegativeRadicandError as exc:
        # where the radical stops being real is a finding, not bad input
        verdict = "INCONCLUSIVE"
        evidence = [
            {"name": "negative_radicand", "level": exc.level, "radicand": _r(exc.radicand)}
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ClaimReport(claim_id, mode, verdict, params, evidence)


# ---------------------------------------------------------------- table
#
# A table takes the options it reads, defaults filled in and every list
# option already parsed, and returns (columns, rows, summary): rows are
# dicts of raw values, summary a closing line or None; cmd_table renders them.


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


def _parse_int_range(spec: str, flag: str, least: int, most: int) -> list[int]:
    # the bounds are checked before a range is expanded into a list
    if ".." not in spec:
        values = _parse_list(spec, flag, int)
        lo, hi = min(values), max(values)
    else:
        try:
            lo, hi = map(int, spec.split("..", 1))
        except ValueError as exc:
            raise UsageError(f"bad {flag} range {spec!r}") from exc
        if hi < lo:
            raise UsageError(f"{flag} range {spec!r} is reversed")
        values = range(lo, hi + 1)
    if lo < least or hi > most:
        raise UsageError(f"{flag} must lie in [{least}, {most}], got {spec}")
    return list(values)


def _parse_eps_range(spec: str) -> list[float]:
    # "1e-2..1e-5" walks down a decade at a time; commas list explicitly
    if ".." not in spec:
        return _parse_list(spec, "--eps")
    try:
        start, end = map(float, spec.split("..", 1))
        hi, lo = round(math.log10(start)), round(math.log10(end))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad --eps range {spec!r}") from exc
    if not (math.isclose(start, 10.0**hi) and math.isclose(end, 10.0**lo) and lo <= hi):
        raise UsageError(f"--eps range {spec!r} must run from a larger to a smaller power of 10")
    return [10.0**k for k in range(hi, lo - 1, -1)]


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
    # deg Phi_n = phi(n), from phi(m / spf[m]) in one pass over the sieve
    # as in _migotti; the height comes from the Phi of n's odd squarefree
    # kernel, one construction shared by every n with the same odd primes
    spf = arith.sieve(max(*n_values, 2)).smallest_factor
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
        raise UsageError("--eps " + str(exc).removeprefix("probe eps ")) from exc
    return ["eps", "lhs", "lhs_error_bound", "rhs", "rhs_error_bound", "note"], rows, None


def _radical_table(params: dict):
    if len(params["s"]) != 1:
        raise UsageError("radical table takes exactly one --s value")
    params["s"] = params["s"][0]
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
    rows, reasons = _rows_by_s(params["s"], columns, lambda s: radical.domain_scan(
        [s], params["depth"], radical.TailMode.ONE_TAIL)[0])
    valid = [row["s"] for row in rows if row.get("all_radicands_positive")]
    summary = (
        f"smallest grid s with all ONE_TAIL radicands positive: {min(valid):.15g}"
        if valid
        else "no grid s kept all ONE_TAIL radicands positive"
    )
    # with no row evaluated there is no domain finding, only the reasons
    evaluated = any("error" not in row for row in rows)
    return columns, rows, "\n".join([summary, *reasons] if evaluated else reasons)


# every option a table can read, in report order, with its converter
_TABLE_OPTIONS = {"tol": _POSITIVE,
                  "s": lambda spec: [_ABOVE_ONE(s) for s in _parse_list(spec, "--s")],
                  "n": lambda spec: _parse_int_range(spec, "--n", 1, cyclotomic._MAX_N),
                  "eps": lambda spec: [_r(e) for e in _parse_eps_range(spec)],
                  "depth": _depth}

# selector -> (table, the options it reads with their defaults); the zeta
# functions are looked up at each call, so a rebinding of them is seen too
_TABLES = {
    "zeta": (lambda p: _value_table(zeta.zeta_real, p), {"tol": 1e-12, "s": "2,3,4"}),
    "prime-zeta": (lambda p: _value_table(zeta.prime_zeta, p), {"tol": 1e-12, "s": "2,3,4"}),
    "cyclotomic-height": (_cyclotomic_table, {"n": "1..120"}),
    "probe": (_probe_table, {"tol": 1e-12, "eps": "1e-2..1e-5"}),
    "radical": (_radical_table, {"s": "2", "depth": 20}),
    "radical-domain": (_radical_domain_table, {"s": "1.05,1.1,1.2,1.3,1.4,1.5,1.6,1.8,2,3",
                                               "depth": 20}),
}


def _json_row(row: dict) -> dict:
    # floats at report precision; an infinite gap (no such truncation) is null
    return {
        k: (None if math.isinf(v) else _r(v)) if isinstance(v, float) else v
        for k, v in row.items()
    }


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
    table, defaults = _TABLES[selector]
    params = _used_options(selector, defaults, options, _TABLE_OPTIONS)
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
    check.add_argument(
        "claim", choices=[c.lower() for c in CLAIM_IDS], help="claim to check"
    )
    check.add_argument("--mode", choices=[m.lower() for m in MODES])
    check.add_argument("--s", type=float, help="evaluation point (default 2)")
    check.add_argument(
        "--max-n", type=int, dest="max_n",
        help="series truncation / scan limit (default 10^4; migotti 200)",
    )
    check.add_argument("--tol", type=float, help="error-bound target (default 1e-12)")
    check.add_argument("--depth", type=int, help="radical depth (default 20)")
    check.add_argument("--format", choices=["text", "structured"], default="text")

    table = sub.add_parser("table", help="print an evaluation table")
    table.add_argument("selector", choices=list(_TABLES))
    table.add_argument("--s", help="comma-separated s values")
    table.add_argument("--n", help="n range, e.g. 1..120 or 3,5,105")
    table.add_argument("--eps", help="eps grid, e.g. 1e-2..1e-5")
    table.add_argument("--depth", type=int, help="radical depth (default 20)")
    table.add_argument("--tol", type=float, help="error-bound target (default 1e-12)")
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


if __name__ == "__main__":
    sys.exit(main())
