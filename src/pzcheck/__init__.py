"""pzcheck: computational falsification of claimed prime-zeta identities.

Exact Dirichlet-series coefficient algebra, rigorous-bound evaluation of
zeta(s) and the prime zeta function P(s), nested-radical evaluation with
tail acceleration, and cyclotomic polynomial heights — everything needed
to check the claimed identities and watch them fail.

The import is lazy (PEP 562): `import pzcheck` loads no submodule, and
each name below is imported from its home module on first use.
"""

__version__ = "0.1.0"

# home module -> the names it exports here.  NB: the cyclotomic() op stays
# namespaced (pzcheck.cyclotomic.cyclotomic) so the function does not
# shadow its submodule in the package namespace.
_EXPORTS = {
    "arith": ("FactoredInteger", "PrimeTable", "factorize", "mobius", "primes_upto",
              "sieve"),
    "cyclotomic": ("IntPolynomial", "height"),
    "dirichlet": ("DirichletSeries", "claim_lhs_series", "claim_rhs_series", "convolve",
                  "dilate", "invert", "prime_zeta_series", "unit_series", "zeta_series"),
    "radical": ("Claim4Result", "NegativeRadicandError", "claim4_check",
                "convergence_report", "domain_scan", "eval_nested"),
    "zeta": ("EvalResult", "FitResult", "PrecisionError", "ProbeRow", "claim_lhs",
             "claim_rhs", "fit_log_quadratic", "prime_zeta", "singularity_probe",
             "zeta_real"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
