"""Outside-in timing spans around pzcheck's public functions.

The traced child installs a Recorder before it calls pzcheck.cli.main:
every target function is replaced by a timing wrapper at every place a
loaded pzcheck module binds it, so calls through `from .x import f`
names (radical's prime_zeta and _euler_maclaurin, cli's cyclotomic_poly
and cyclotomic_height) and through module globals (cyclotomic.height
calling cyclotomic) are all seen.  A span is [name, start, end,
parent index, work]; work is the truncation of a returned Dirichlet
series or the coefficient count of a returned polynomial.

LayerTotals adds up the spans of many traced invocations in the parent
and turns them into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced child; the span name is
# "<module>.<function without leading underscore>"
TARGETS = (
    ("arith", "sieve"),
    ("arith", "factorize"),
    ("dirichlet", "zeta_series"),
    ("dirichlet", "prime_zeta_series"),
    ("dirichlet", "unit_series"),
    ("dirichlet", "convolve"),
    ("dirichlet", "invert"),
    ("dirichlet", "dilate"),
    ("dirichlet", "linear_combine"),
    ("dirichlet", "first_mismatch"),
    ("dirichlet", "claim_lhs_series"),
    ("dirichlet", "claim_rhs_series"),
    ("zeta", "_euler_maclaurin"),
    ("zeta", "zeta_real"),
    ("zeta", "prime_zeta"),
    ("zeta", "claim_lhs"),
    ("zeta", "claim_rhs"),
    ("zeta", "singularity_probe"),
    ("zeta", "fit_log_quadratic"),
    ("radical", "eval_nested"),
    ("radical", "claim4_check"),
    ("radical", "convergence_report"),
    ("radical", "domain_scan"),
    ("cyclotomic", "cyclotomic"),
    ("cyclotomic", "height"),
)

_DIRICHLET_BUILD = ("zeta_series", "prime_zeta_series", "unit_series")
_DIRICHLET_OPS = _DIRICHLET_BUILD + (
    "convolve", "invert", "dilate", "linear_combine", "first_mismatch")


def _work(result) -> int:
    truncation = getattr(result, "truncation", None)
    if truncation is not None:
        return truncation
    coeffs = getattr(result, "coeffs", None)
    return len(coeffs) if coeffs is not None else 0


class Recorder:
    """Spans of one process, kept in memory until the process ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.originals: dict = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            record[4] = _work(result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target at every binding site; return the sites."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "pzcheck" or key.startswith("pzcheck.")]
        patched = []
        for layer, attr in TARGETS:
            home = sys.modules.get(f"pzcheck.{layer}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            name = f"{layer}.{attr.lstrip('_')}"
            wrapper = self.wrap(name, original)
            self.originals[name] = original
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append(f"{module.__name__}.{key}")
        return patched

    def record(self, patched: list[str]) -> dict:
        cache = {name: list(fn.cache_info()[:2]) for name, fn in self.originals.items()
                 if hasattr(fn, "cache_info")}
        return {"spans": self.spans, "cache": cache, "patched": patched}


class LayerTotals:
    """Per-layer sums over the traced invocations of one run."""

    def __init__(self):
        self.time = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.work = Counter()
        self.module_time = Counter()  # outermost spans of each module
        self.cache = Counter()

    def add(self, record: dict) -> None:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, work) in enumerate(spans):
            duration = end - start
            self.time[name] += duration
            self.self_time[name] += duration - covered[i]
            self.calls[name] += 1
            self.work[name] += work
            module = name.split(".")[0]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0].split(".")[0] != module:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                self.module_time[module] += duration
        for name, (hits, misses) in record["cache"].items():
            self.cache[name + ".hits"] += hits
            self.cache[name + ".misses"] += misses

    def module_calls(self, module: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(module + "."))

    def metrics(self) -> dict[str, tuple[float, str]]:
        t, c = self.time, self.calls
        hits = self.cache["cyclotomic.cyclotomic.hits"]
        lookups = hits + self.cache["cyclotomic.cyclotomic.misses"]
        dirichlet = [f"dirichlet.{op}" for op in _DIRICHLET_OPS]
        return {
            "cli.main_s": (t["cli.main"], "s"),
            "cli.self_s": (self.self_time["cli.main"], "s"),
            "arith.sieve_s": (t["arith.sieve"], "s"),
            "arith.sieve.calls": (c["arith.sieve"], "count"),
            "arith.factorize_s": (t["arith.factorize"], "s"),
            "arith.factorize.calls": (c["arith.factorize"], "count"),
            "dirichlet.total_s": (self.module_time["dirichlet"], "s"),
            "dirichlet.invert_s": (t["dirichlet.invert"], "s"),
            "dirichlet.convolve_s": (t["dirichlet.convolve"], "s"),
            "dirichlet.linear_combine_s": (t["dirichlet.linear_combine"], "s"),
            "dirichlet.dilate_s": (t["dirichlet.dilate"], "s"),
            "dirichlet.first_mismatch_s": (t["dirichlet.first_mismatch"], "s"),
            "dirichlet.build_s": (sum(t[f"dirichlet.{b}"] for b in _DIRICHLET_BUILD), "s"),
            "dirichlet.calls": (sum(c[name] for name in dirichlet), "count"),
            "dirichlet.coefficients": (sum(self.work[name] for name in dirichlet), "count"),
            "zeta.total_s": (self.module_time["zeta"], "s"),
            "zeta.euler_maclaurin_s": (t["zeta.euler_maclaurin"], "s"),
            "zeta.euler_maclaurin.calls": (c["zeta.euler_maclaurin"], "count"),
            "zeta.zeta_real_s": (t["zeta.zeta_real"], "s"),
            "zeta.prime_zeta_s": (t["zeta.prime_zeta"], "s"),
            "zeta.prime_zeta.calls": (c["zeta.prime_zeta"], "count"),
            "zeta.claim_sides_s": (t["zeta.claim_lhs"] + t["zeta.claim_rhs"], "s"),
            "zeta.singularity_probe_s": (self.self_time["zeta.singularity_probe"], "s"),
            "zeta.fit_log_quadratic_s": (t["zeta.fit_log_quadratic"], "s"),
            "radical.total_s": (self.module_time["radical"], "s"),
            "radical.eval_nested_s": (t["radical.eval_nested"], "s"),
            "radical.eval_nested.calls": (c["radical.eval_nested"], "count"),
            "radical.claim4_check_s": (t["radical.claim4_check"], "s"),
            "radical.convergence_report_s": (t["radical.convergence_report"], "s"),
            "radical.domain_scan_s": (t["radical.domain_scan"], "s"),
            "cyclotomic.total_s": (self.module_time["cyclotomic"], "s"),
            "cyclotomic.cyclotomic_s": (t["cyclotomic.cyclotomic"], "s"),
            "cyclotomic.cyclotomic.calls": (c["cyclotomic.cyclotomic"], "count"),
            "cyclotomic.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "cyclotomic.height_s": (t["cyclotomic.height"], "s"),
            "cyclotomic.coefficients": (self.work["cyclotomic.cyclotomic"], "count"),
        }
