"""The claim report: its vocabulary, verdict rule, record, validation rules and rendering.

A ClaimReport is what `pzcheck check` prints, in text or as one JSON
object, for a claim and mode that CHECKS lists.  verdict_of reads its
verdict off its evidence, one FACT_RULES row per fact name deciding
whether a fact refutes (a name with no row refutes nothing), validate()
holds every rule a report obeys, among them one flat shape (_flat), and
emit_report and parse_report render and read back every report it passes.
The module imports no layer module, so the rules can be used and tested
without running a check.
"""

from __future__ import annotations

from collections import namedtuple
from math import isfinite

# the checks pzcheck has, stated only here: claim -> its modes in --help order, default first
CHECKS = {"CLAIM2_3": ("SYMBOLIC", "NUMERIC", "PROBE"), "CLAIM4": ("NUMERIC",),
          "MIGOTTI_REMARK": ("SYMBOLIC",)}


def _r(v: float) -> float:
    # report floats at 15 significant digits; stored == printed, so
    # structured reports round-trip exactly
    return float(f"{v:.15g}")


def _scalar(v) -> bool:
    return (v is None or isinstance(v, (bool, str)) or isinstance(v, float) and isfinite(v)
            or isinstance(v, int) and _prints(v))


def _prints(v: int) -> bool:
    # str() and json refuse an int past sys.get_int_max_str_digits() digits, 4300 by default
    try:
        str(v)
    except ValueError:
        return False
    return True


def _flat(fields: dict) -> bool:
    # the shape rule: string keys, each value a scalar or a list of scalars, as JSON reads it back
    return all(isinstance(k, str) and (_scalar(v) or isinstance(v, list) and all(map(_scalar, v)))
               for k, v in fields.items())


def _bound_agrees(fact: dict) -> bool:
    # a fact that carries its gap and bound must report their comparison
    if "exceeds_bound" not in fact or "combined_error_bound" not in fact:
        return True
    gap = fact.get("difference", fact.get("value"))
    try:
        return (gap > fact["combined_error_bound"]) is fact["exceeds_bound"]
    except TypeError:
        return False


# fact name -> (kind, refutes): the kind of mode that reads the fact, exact in
# SYMBOLIC and bound in NUMERIC and PROBE, and whether it records a disagreement:
# unequal coefficients, a Migotti counterexample (c_7 or c_41 of Phi_105 not -2, or a
# height above one), or a gap beyond its bound beside both numbers _bound_agrees reads.
# Keys are read by presence: a malformed fact refutes nothing and raises nothing.
_UNEQUAL = ("exact", lambda fact: fact.keys() >= {"lhs_coefficient", "rhs_coefficient"}
            and fact["lhs_coefficient"] != fact["rhs_coefficient"])
_BEYOND = ("bound", lambda fact: fact.get("exceeds_bound") is True
           and "combined_error_bound" in fact and ("value" in fact or "difference" in fact))
FACT_RULES = {"first_mismatch": _UNEQUAL, "series_mismatch": _UNEQUAL,
              "difference": _BEYOND, "divergence": _BEYOND, "gap": _BEYOND,
              "phi_105_coefficients": ("exact", lambda fact: any(
                  fact.get(key, -2) != -2 for key in ("degree_7", "degree_41"))),
              "migotti_bound": ("exact", lambda fact: fact.get("all_heights_one") is False)}


def verdict_of(mode: str, evidence: list) -> str:
    """INCONCLUSIVE beside a reason fact, else REFUTED by a fact whose FACT_RULES row has the
    mode's kind and reads a disagreement (an exact row's fact marked "exact": true), else
    CONSISTENT in SYMBOLIC and INCONCLUSIVE otherwise; a name with no row refutes nothing."""
    if any(fact["name"] == "reason" for fact in evidence):
        return "INCONCLUSIVE"
    mode_kind = "exact" if mode == "SYMBOLIC" else "bound"
    for fact in evidence:
        kind, refutes = FACT_RULES.get(fact["name"], (None, None))
        if kind == mode_kind and (kind == "bound" or fact.get("exact") is True) and refutes(fact):
            return "REFUTED"
    return "CONSISTENT" if mode_kind == "exact" else "INCONCLUSIVE"


class ClaimReport(namedtuple("ClaimReport", "claim_id mode verdict parameters evidence")):
    """Structured verdict: claim, mode, verdict, evidence, parameters.

    The verdict must be the one verdict_of reads off the evidence, in
    every mode.  Every fact that carries exceeds_bound with its numbers
    must agree with them, and a claim or mode the parameters echo must
    be the report's own.  validate() enforces these and the flat shape
    on every path that builds a report: the constructor, _make,
    _replace, unpickling and parse_report.
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
        # compared by ==, so a parsed claim_id that is a list or dict is refused, not hashed
        if not any(self.claim_id == c and self.mode in modes for c, modes in CHECKS.items()):
            raise ValueError(f"no check of claim_id {self.claim_id!r} in mode {self.mode!r}")
        if not isinstance(self.parameters, dict) or not isinstance(self.evidence, list):
            raise ValueError("parameters must be a dict and evidence a list")
        for fact in self.evidence:
            if not isinstance(fact, dict) or not isinstance(fact.get("name"), str):
                # named by its type: the repr of a deeply nested list would recurse
                raise ValueError(f"evidence fact ({type(fact).__name__}) is not a dict with "
                                 "a string name")
        if not all(map(_flat, [self.parameters, *self.evidence])):
            raise ValueError("parameters and evidence must carry only finite numbers that "
                             "print, strings, booleans, None or lists of those, under string keys")
        if any(self.parameters.get(key, own) != own for key, own in zip(("claim", "mode"), self)):
            raise ValueError("parameters echo a claim or mode other than the report's own")
        for fact in filter(lambda fact: not _bound_agrees(fact), self.evidence):
            raise ValueError(f"fact {fact['name']!r}: exceeds_bound disagrees with its own gap "
                             "and combined error bound")
        carried = verdict_of(self.mode, self.evidence)
        if self.verdict != carried:
            raise ValueError(f"{self.verdict} verdict on evidence that carries {carried}")
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

    try:
        payload = json.loads(text)
    except RecursionError:  # nested deeper than json reads, so deeper than a report is
        raise ValueError(f"not a structured report: {text[:60]!r}") from None
    if not isinstance(payload, dict) or payload.keys() != set(ClaimReport._fields):
        raise ValueError(f"not a structured report: {text[:60]!r}")
    return ClaimReport(*map(payload.get, ClaimReport._fields))


def _fmt_value(v) -> str:
    # a scalar, or a list of scalars one level deep: the shapes a report carries
    text = ",".join(f"{x:.15g}" if isinstance(x, float) else str(x)
                    for x in (v if isinstance(v, list) else [v]))
    return f"[{text}]" if isinstance(v, list) else text


# Evidence facts, every fact a verdict rule reads among them, built from values
# the pipelines pass.  ev, a and b are zeta.EvalResult records, annotated as
# tuples; a - b propagates in EvalResult's operators, truncation only.


def _eval_fact(name: str, ev: tuple, **extra) -> dict:
    return {"name": name, "value": _r(ev.value), "error_bound": _r(ev.error_bound), **extra}


def _discrepancy(name: str, a: tuple, b: tuple, key: str = "value", **extra) -> dict:
    # the one place two bounded values are compared: a - b against its own bound
    difference = a - b
    gap, bound = _r(abs(difference.value)), _r(difference.error_bound)
    return {"name": name, **extra, key: gap, "combined_error_bound": bound,
            "exceeds_bound": gap > bound}


def _mismatch_fact(name: str, index: int, a, b) -> dict:
    return {"name": name, "index": index, "lhs_coefficient": str(a),
            "rhs_coefficient": str(b), "exact": True}


def _reason(detail: str) -> dict:
    return {"name": "reason", "detail": detail}


def _by_bound(discrepancy: dict, evidence: list, reason: str) -> list:
    # a discrepancy within its bound decides nothing, and the evidence says why
    return evidence + ([] if discrepancy["exceeds_bound"] else [_reason(reason)])


def _migotti_evidence(phi_105, height: int, scan_limit: int, eligible_count: int,
                      violations: list) -> list:
    # phi_105 is cyclotomic's Phi_105, read through coefficient(): report loads no layer module
    evidence = [{"name": "phi_105_coefficients", "degree_7": phi_105.coefficient(7),
                 "degree_41": phi_105.coefficient(41), "height": height, "exact": True},
                {"name": "migotti_bound", "scan_limit": scan_limit,
                 "eligible_count": eligible_count, "all_heights_one": not violations,
                 "exact": True}]
    return evidence + ([{"name": "violations", "indices": violations[:10]}] if violations else [])
