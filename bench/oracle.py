"""Independent reference answers and the output checker.

Nothing here calls pzcheck.  Numeric values are compared with mpmath at
30 digits to 1e-9 relative; exact evidence is recomputed with this
module's own sieve and its own cyclotomic power series.  check() parses
a report or table in either output format and returns a Finding; a
wrong verdict, a wrong value or an unparsable output is a failure with
a reason.  Reported values whose distance from mpmath exceeds their own
error_bound are counted separately: they are a known defect, not a
failure.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np

REL_TOL = 1e-9
_DPS = 30

# the grids pzcheck uses when radical-domain gets no --s and a probe
# check gets no eps
DEFAULT_DOMAIN_GRID = (1.05, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0, 3.0)
DEFAULT_PROBE_GRID = (1e-2, 1e-3, 1e-4, 1e-5)


@dataclass
class Finding:
    ok: bool = True
    reason: str = ""
    bound_violations: int = 0

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok, self.reason = False, reason

    def expect(self, cond: bool, reason: str) -> None:
        if not cond:
            self.fail(reason)


class Arithmetic:
    """Sieve-based tables up to a fixed limit: omega, phi, odd kernel."""

    def __init__(self, limit: int):
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        omega = [0] * (limit + 1)
        odd_omega = [0] * (limit + 1)
        squarefree = [True] * (limit + 1)
        phi = [1] * (limit + 1)
        kernel = [1] * (limit + 1)  # product of the distinct odd primes
        for n in range(2, limit + 1):
            p = spf[n]
            m = n // p
            if m % p == 0:
                omega[n], odd_omega[n], kernel[n] = omega[m], odd_omega[m], kernel[m]
                squarefree[n] = False
                phi[n] = phi[m] * p
            else:
                omega[n] = omega[m] + 1
                odd_omega[n] = odd_omega[m] + (p != 2)
                kernel[n] = kernel[m] * (p if p != 2 else 1)
                squarefree[n] = squarefree[m]
                phi[n] = phi[m] * (p - 1)
        self.spf, self.phi, self.odd_kernel = spf, phi, kernel
        self._three = _prefix(squarefree[n] and omega[n] >= 3 for n in range(limit + 1))
        self._eligible = _prefix(n >= 1 and odd_omega[n] <= 2 for n in range(limit + 1))

    def squarefree_three_primes_upto(self, n: int) -> int:
        """#{m <= n : m squarefree, omega(m) >= 3}, the exact mismatch count."""
        return self._three[n]

    def migotti_eligible_upto(self, n: int) -> int:
        """#{m <= n : at most two distinct odd primes divide m}."""
        return self._eligible[n]

    def prime_factors(self, n: int) -> list[int]:
        out = []
        while n > 1:
            p = self.spf[n]
            out.append(p)
            while n % p == 0:
                n //= p
        return out


def _prefix(flags) -> list[int]:
    out, acc = [], 0
    for f in flags:
        acc += bool(f)
        out.append(acc)
    return out


def cyclotomic_coefficients(k: int, degree: int, arith: Arithmetic) -> np.ndarray:
    """Coefficients 0..degree of Phi_k for squarefree k > 1.

    Phi_k = prod_{d | k} (1 - x^d)^mu(k/d) as a power series truncated
    at x^degree: multiply the mu = +1 factors first, then divide by the
    mu = -1 factors with a strided running sum.
    """
    primes = arith.prime_factors(k)
    divisors = [1]
    for p in primes:
        divisors += [d * p for d in divisors]
    c = np.zeros(degree + 1, dtype=np.int64)
    c[0] = 1
    mu_of = {d: (-1) ** len(arith.prime_factors(k // d)) for d in divisors}
    for d in sorted(divisors, key=lambda d: -mu_of[d]):
        if d > degree:
            continue
        if mu_of[d] == 1:
            c[d:] = c[d:] - c[:-d]
        else:
            pad = (-len(c)) % d
            grid = np.concatenate([c, np.zeros(pad, dtype=np.int64)]).reshape(-1, d)
            c = np.cumsum(grid, axis=0).ravel()[: degree + 1]
        if np.abs(c).max() > 2**50:
            raise ArithmeticError(f"power series for Phi_{k} outgrew int64")
    return c


class Oracle:
    """Reference answers for every invocation kind the workloads send."""

    def __init__(self, limit: int = 50_000):
        self.arith = Arithmetic(limit)
        self._heights: dict[int, int] = {1: 1}
        self._zeta: dict[float, mpmath.mpf] = {}
        self._prime_zeta: dict[float, mpmath.mpf] = {}

    # ------------------------------------------------------------ truths

    def height(self, n: int) -> int:
        """Height of Phi_n; Phi_n and Phi_{odd squarefree kernel} share it."""
        k = self.arith.odd_kernel[n]
        if k not in self._heights:
            coeffs = cyclotomic_coefficients(k, self.arith.phi[k] // 2, self.arith)
            self._heights[k] = int(np.abs(coeffs).max())
        return self._heights[k]

    def zeta(self, s: float) -> mpmath.mpf:
        """zeta(s) at 30 digits for a double s (exact in binary)."""
        if s not in self._zeta:
            with mpmath.workdps(_DPS):
                self._zeta[s] = mpmath.zeta(mpmath.mpf(s))
        return self._zeta[s]

    def prime_zeta(self, s: float) -> mpmath.mpf:
        if s not in self._prime_zeta:
            with mpmath.workdps(_DPS):
                self._prime_zeta[s] = mpmath.primezeta(mpmath.mpf(s))
        return self._prime_zeta[s]

    def claim_sides(self, s: float) -> tuple[mpmath.mpf, mpmath.mpf]:
        """(2/zeta(s), 2 - 2P(s) + P(s)^2 - P(2s)) at 30 digits."""
        with mpmath.workdps(_DPS):
            p1, p2 = self.prime_zeta(s), self.prime_zeta(2.0 * s)
            return 2 / self.zeta(s), 2 - 2 * p1 + p1 * p1 - p2

    def radical_fold(self, s: float, depth: int, tail: int):
        """The depth-n radical folded right to left with seed `tail`.

        Returns (value, None), or (None, level) when the radicand at the
        1-based level (outermost first) goes negative.
        """
        with mpmath.workdps(_DPS):
            partial = mpmath.mpf(tail)
            for level in range(depth, 0, -1):
                radicand = 2 / self.zeta(s * 2.0 ** (level - 1)) - partial
                if radicand < 0:
                    return None, level
                partial = mpmath.sqrt(radicand)
            return partial, None

    # ------------------------------------------------------------ checks

    def check(self, kind: str, params: dict, returncode: int, stdout: str) -> Finding:
        found = Finding()
        if returncode != 0:
            found.fail(f"exit status {returncode}")
            return found
        try:
            parsed = parse_output(stdout)
            with mpmath.workdps(_DPS):
                getattr(self, "_check_" + kind.replace("-", "_"))(params, parsed, found)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            found.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        return found

    def _value(self, found: Finding, what: str, fact_value, fact_bound, truth,
               scale=None) -> None:
        """Compare with truth to REL_TOL relative to scale (default |truth|).

        A difference of two sides takes the larger side as its scale:
        each side is only good to REL_TOL of itself.
        """
        value = float(fact_value)
        err = abs(mpmath.mpf(value) - truth)
        found.expect(err <= REL_TOL * (abs(truth) if scale is None else scale),
                     f"{what}={value!r} differs from reference {mpmath.nstr(truth, 17)}")
        if fact_bound is not None and err > float(fact_bound):
            found.bound_violations += 1

    @staticmethod
    def _verdict(found: Finding, report: dict, claim: str, verdict: str) -> dict:
        found.expect(report.get("claim_id") == claim, f"claim_id {report.get('claim_id')!r}")
        found.expect(report.get("verdict") == verdict,
                     f"verdict {report.get('verdict')!r}, expected {verdict}")
        return {fact["name"]: fact for fact in report["evidence"]}

    @staticmethod
    def _series_mismatch(found: Finding, fact: dict) -> None:
        found.expect(
            (fact["index"], str(fact["lhs_coefficient"]), str(fact["rhs_coefficient"]),
             fact["exact"]) == (30, "-2", "0", True),
            f"first mismatch {fact!r}, expected (30, -2, 0)",
        )

    def _check_symbolic(self, params, report, found):
        n = params["max_n"]
        if n < 30:
            facts = self._verdict(found, report, "CLAIM2_3", "CONSISTENT")
            agree = facts["coefficient_agreement"]
            found.expect((agree["truncation"], agree["exact"]) == (n, True),
                         f"coefficient agreement {agree!r}")
            return
        facts = self._verdict(found, report, "CLAIM2_3", "REFUTED")
        self._series_mismatch(found, facts["first_mismatch"])
        scan = facts["mismatch_scan"]
        want = self.arith.squarefree_three_primes_upto(n)
        found.expect(scan["truncation"] == n, f"scan truncation {scan['truncation']}")
        found.expect(scan["mismatch_count"] == want,
                     f"mismatch_count {scan['mismatch_count']}, expected {want}")
        found.expect(scan["all_mismatches_have_three_distinct_primes"] is True,
                     "mismatch scan flag false")

    def _check_numeric(self, params, report, found):
        facts = self._verdict(found, report, "CLAIM2_3", "REFUTED")
        lhs_true, rhs_true = self.claim_sides(params["s"])
        lhs, rhs, diff = facts["lhs"], facts["rhs"], facts["difference"]
        self._value(found, "lhs", lhs["value"], lhs["error_bound"], lhs_true)
        self._value(found, "rhs", rhs["value"], rhs["error_bound"], rhs_true)
        self._value(found, "difference", diff["value"], None, abs(lhs_true - rhs_true),
                    max(abs(lhs_true), abs(rhs_true)))
        found.expect(diff["exceeds_bound"] is True
                     and float(diff["value"]) > float(diff["combined_error_bound"]),
                     "difference does not exceed its bound")

    def _check_probe(self, params, report, found):
        facts = self._verdict(found, report, "CLAIM2_3", "REFUTED")
        rows = [f for f in report["evidence"] if f["name"] == "probe_row"]
        self._probe_rows(found, list(DEFAULT_PROBE_GRID), [
            {"eps": r["eps"], "lhs": r["lhs_value"], "lhs_error_bound": r["lhs_error_bound"],
             "rhs": r["rhs_value"], "rhs_error_bound": r["rhs_error_bound"]} for r in rows])
        mono = facts["monotonicity"]
        found.expect(mono["lhs_decreasing_to_zero"] is True and mono["rhs_increasing"] is True,
                     "probe monotonicity flags false")
        fit = facts["log_quadratic_fit"]
        want = _log_quadratic_fit(
            [(eps, self.claim_sides(1.0 + eps)[1]) for eps in DEFAULT_PROBE_GRID])
        for key, truth in zip(("leading", "linear", "constant"), want):
            found.expect(abs(float(fit[key]) - truth) <= 1e-6 * abs(truth),
                         f"fit {key}={fit[key]} differs from reference {truth}")
        found.expect(float(fit["relative_residual"]) < 0.1, "fit residual above 0.1")
        found.expect(facts["divergence"]["exceeds_bound"] is True,
                     "divergence does not exceed its bound")

    def _probe_rows(self, found, grid, rows):
        found.expect(len(rows) == len(grid), f"{len(rows)} probe rows for {len(grid)} eps")
        for eps, row in zip(grid, rows):
            found.expect(float(row["eps"]) == eps, f"probe row eps {row['eps']}")
            lhs_true, rhs_true = self.claim_sides(1.0 + eps)
            self._value(found, f"lhs(eps={eps:g})", row["lhs"], row["lhs_error_bound"], lhs_true)
            self._value(found, f"rhs(eps={eps:g})", row["rhs"], row["rhs_error_bound"], rhs_true)

    def _check_claim4(self, params, report, found):
        s, depth = params["s"], params["depth"]
        facts = self._verdict(found, report, "CLAIM4", "REFUTED")
        fold, level = self.radical_fold(s, depth, 1)
        found.expect(level is None, f"reference fold fails at level {level}")
        rad, pz, gap = facts["radical_side"], facts["prime_zeta_side"], facts["gap"]
        found.expect(rad["depth"] == depth, f"radical depth {rad['depth']}")
        if fold is not None:
            self._value(found, "radical_side", rad["value"], rad["error_bound"], 1 - fold)
        pz_true = self.prime_zeta(s)
        self._value(found, "prime_zeta_side", pz["value"], pz["error_bound"], pz_true)
        if fold is not None:
            self._value(found, "gap", gap["value"], None, abs(pz_true - (1 - fold)),
                        max(abs(pz_true), abs(1 - fold)))
        found.expect(gap["exceeds_bound"] is True, "gap does not exceed its bound")
        found.expect(facts["squared_form_equals_claim_form"]["equal"] is True,
                     "squared form differs from claim form")
        self._series_mismatch(found, facts["series_mismatch"])

    def _check_migotti(self, params, report, found):
        n = params["max_n"]
        facts = self._verdict(found, report, "MIGOTTI_REMARK", "CONSISTENT")
        phi = facts["phi_105_coefficients"]
        c = cyclotomic_coefficients(105, 48, self.arith)
        found.expect((phi["degree_7"], phi["degree_41"], phi["height"])
                     == (int(c[7]), int(c[41]), self.height(105)) == (-2, -2, 2),
                     f"Phi_105 evidence {phi!r}")
        bound = facts["migotti_bound"]
        want = self.arith.migotti_eligible_upto(n)
        found.expect(bound["scan_limit"] == n, f"scan_limit {bound['scan_limit']}")
        found.expect(bound["eligible_count"] == want,
                     f"eligible_count {bound['eligible_count']}, expected {want}")
        found.expect(bound["all_heights_one"] is True, "all_heights_one false")

    def _check_zeta(self, params, table, found):
        self._function_rows(params, table, found, self.zeta)

    def _check_prime_zeta(self, params, table, found):
        self._function_rows(params, table, found, self.prime_zeta)

    def _function_rows(self, params, table, found, truth):
        rows = table["rows"]
        found.expect(len(rows) == len(params["s"]), f"{len(rows)} rows")
        for s, row in zip(params["s"], rows):
            found.expect(float(row["s"]) == s, f"row s={row['s']}, expected {s!r}")
            self._value(found, f"value(s={s!r})", row["value"], row["error_bound"], truth(s))

    def _check_cyclotomic_height(self, params, table, found):
        want = [(n, self.arith.phi[n], self.height(n))
                for n in range(params["lo"], params["hi"] + 1)]
        got = [(int(r["n"]), int(r["degree"]), int(r["height"])) for r in table["rows"]]
        wrong = [g for g, w in zip(got, want) if g != w]
        found.expect(len(got) == len(want) and not wrong,
                     f"cyclotomic rows differ, first {wrong[:1]} of {len(got)} rows")

    def _check_probe_table(self, params, table, found):
        self._probe_rows(found, params["eps"], table["rows"])

    def _check_radical(self, params, table, found):
        s, depth = params["s"], params["depth"]
        f_star, _ = self.radical_fold(s, depth, 1)
        rows = table["rows"]
        found.expect(len(rows) == depth, f"{len(rows)} radical rows for depth {depth}")
        for n, row in zip(range(1, depth + 1), rows):
            found.expect(int(row["n"]) == n, f"radical row n={row['n']}")
            for key, tail in (("zero_tail_gap", 0), ("one_tail_gap", 1)):
                fold, _ = self.radical_fold(s, n, tail)
                got = row[key]
                if fold is None:
                    found.expect(got is None, f"{key}[n={n}]={got}, expected inf")
                else:
                    found.expect(got is not None and abs(float(got) - abs(fold - f_star)) <= 1e-9,
                                 f"{key}[n={n}]={got}, expected {mpmath.nstr(abs(fold - f_star), 17)}")

    def _check_radical_domain(self, params, table, found):
        depth = params["depth"]
        rows = table["rows"]
        found.expect(len(rows) == len(DEFAULT_DOMAIN_GRID), f"{len(rows)} domain rows")
        valid = []
        for s, row in zip(DEFAULT_DOMAIN_GRID, rows):
            _, level = self.radical_fold(s, depth, 1)
            if level is None:
                valid.append(s)
            found.expect((float(row["s"]), row["all_radicands_positive"], row["failing_level"])
                         == (s, level is None, level),
                         f"domain row {row!r}, expected level {level}")
        found.expect(table["summary"].endswith(f": {min(valid):.15g}"),
                     f"domain summary {table['summary']!r}")


def _log_quadratic_fit(points) -> tuple[float, float, float]:
    """Least squares of y on (log eps)^2, log eps, 1, at 30 digits."""
    with mpmath.workdps(_DPS):
        logs = [mpmath.log(mpmath.mpf(eps)) for eps, _ in points]
        design = mpmath.matrix([[lg * lg, lg, 1] for lg in logs])
        y = mpmath.matrix([v for _, v in points])
        coef, _ = mpmath.qr_solve(design, y)
        return tuple(float(c) for c in coef)


# ---------------------------------------------------------------- parsing

_TEXT_KEYS = {"lhs_bound": "lhs_error_bound", "rhs_bound": "rhs_error_bound"}


def _scalar(text: str):
    if text in ("True", "False"):
        return text == "True"
    if text.startswith("[") and text.endswith("]"):
        return [_scalar(t) for t in text[1:-1].split(",") if t]
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _cell(text: str):
    if text == "-":
        return None
    if text == "inf":
        return None
    if text in ("yes", "no"):
        return text == "yes"
    return _scalar(text)


def parse_output(stdout: str) -> dict:
    """A report or table as the structured format's dict, from either format."""
    if stdout.lstrip().startswith("{"):
        return json.loads(stdout)
    lines = stdout.rstrip("\n").split("\n")
    head = re.fullmatch(r"claim   : (\w+) \[(\w+)\]", lines[0])
    if head:
        verdict = re.fullmatch(r"verdict : (\w+)", lines[1]).group(1)
        evidence = []
        for line in lines[4:]:
            name, _, rest = line.removeprefix("  - ").partition(": ")
            fact = {"name": name}
            for pair in re.split(r" (?=\w+=)", rest):
                key, _, value = pair.partition("=")
                fact[key] = _scalar(value)
            evidence.append(fact)
        return {"claim_id": head.group(1), "mode": head.group(2), "verdict": verdict,
                "evidence": evidence}
    table: dict = {}
    if lines[-1].startswith(("smallest grid s", "no grid s")):
        table["summary"] = lines.pop()
    headers = [_TEXT_KEYS.get(h, h) for h in lines[0].split()]
    rows = []
    for line in lines[1:]:
        cells = re.split(r"\s{2,}", line.strip())
        cells += [""] * (len(headers) - len(cells))
        rows.append({h: (c if h == "note" else _cell(c)) for h, c in zip(headers, cells)})
    table["rows"] = rows
    return table
