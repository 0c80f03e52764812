"""The package namespace and the start-up import graph.

`import pzcheck` is lazy (PEP 562): every name in __all__ comes from its
home submodule on first use.  A default command imports only what it
runs, so fractions (with decimal), json and typing stay out of a
text-format check or table, which loads nothing beyond a bare argparse
parse but pzcheck's modules, math, __future__ and importlib's loaders.
Each graph is read from sys.modules in a fresh interpreter started with
-S, so no site hook preloads anything, and -B, so it writes no bytecode
into src/.

The package's eight records share one contract: each is a tuple with
named fields, no per-instance __dict__, _asdict and pickling, and the
records that check their fields check them on every path that builds one.
Every annotation in the package resolves, given only Fraction.
"""

import fractions
import inspect
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import typing
from functools import lru_cache
from importlib import import_module

import pytest

import pzcheck
from pzcheck.cli import ClaimReport

# the stdlib modules a default text-format command does not need
_DEFERRED = {"fractions", "decimal", "json", "typing"}

# what a default text-format command may load beyond a bare argparse
# parse, besides pzcheck's own modules
_BEYOND_ARGPARSE = {"math", "__future__", "importlib", "importlib._bootstrap",
                    "importlib._bootstrap_external"}

_TEXT_COMMANDS = [
    ["check", "claim2_3", "--mode", "numeric"],
    ["check", "claim4"],
    ["check", "claim2_3", "--max-n", "200"],
    ["table", "zeta"],
]

# the modules bench/layers.py's Recorder.install wraps: it patches only
# the pzcheck modules loaded by `import pzcheck.cli`, so a command that
# stopped loading one would silently lose that module's spans
_LAYERS = {f"pzcheck.{name}" for name in ("arith", "cyclotomic", "dirichlet", "radical", "zeta")}


def _loaded(code: str, *argv: str) -> set[str]:
    """sys.modules after code runs in a fresh `python -S -B` with src on the path."""
    script = code + "\nprint(*sys.modules, file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", script, *argv],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.environ["PYTHONPATH"]},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def _run_main(*argv: str) -> set[str]:
    return _loaded("import sys\nfrom pzcheck.cli import main\nmain(sys.argv[1:])", *argv)


def test_import_pzcheck_loads_no_submodule():
    loaded = _loaded("import sys, pzcheck")
    assert "pzcheck" in loaded
    assert not {m for m in loaded if m.startswith("pzcheck.")}
    assert not loaded & _DEFERRED


@lru_cache(maxsize=1)
def _argparse_graph() -> frozenset[str]:
    return frozenset(_loaded("import sys, argparse\nargparse.ArgumentParser().parse_args([])"))


@pytest.mark.parametrize("argv", _TEXT_COMMANDS)
def test_text_commands_leave_fractions_and_json_unloaded(argv):
    loaded = _run_main(*argv)
    assert "pzcheck.cli" in loaded
    assert not loaded & _DEFERRED, sorted(loaded & _DEFERRED)


@pytest.mark.parametrize("argv", _TEXT_COMMANDS)
def test_text_commands_load_little_beyond_argparse(argv):
    extra = {m for m in _run_main(*argv) - _argparse_graph()
             if m != "pzcheck" and not m.startswith("pzcheck.")}
    assert extra <= _BEYOND_ARGPARSE, sorted(extra - _BEYOND_ARGPARSE)


def test_structured_output_loads_json():
    assert "json" in _run_main("check", "claim2_3", "--mode", "numeric",
                               "--format", "structured")


def test_cli_import_loads_every_layer_module():
    # guards the traced benchmark (bench/layers.py, Recorder.install):
    # deferring a submodule import in cli must fail here first
    loaded = _loaded("import sys, pzcheck.cli")
    assert _LAYERS <= loaded
    assert not loaded & _DEFERRED, sorted(loaded & _DEFERRED)


@pytest.mark.parametrize("name", pzcheck.__all__)
def test_exported_name_is_its_home_modules_object(name):
    home = import_module(f"pzcheck.{pzcheck._HOME[name]}")
    value = getattr(pzcheck, name)
    assert value is getattr(home, name)
    # a function or class is exported from the module that defines it
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_dir_lists_every_export():
    assert set(pzcheck.__all__) <= set(dir(pzcheck))
    assert "__version__" in dir(pzcheck)


def test_submodules_resolve_as_attributes():
    assert pzcheck.cyclotomic is import_module("pzcheck.cyclotomic")
    assert pzcheck.zeta.zeta_real is pzcheck.zeta_real


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pzcheck.no_such_name
    assert not hasattr(pzcheck, "cli_main")


def _defined_functions():
    """Every function and method that pzcheck or one of its modules defines."""
    submodules = pkgutil.iter_modules(pzcheck.__path__, "pzcheck.")
    for module in [pzcheck, *(import_module(info.name) for info in submodules)]:
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else [value]:
                member = getattr(member, "fget", getattr(member, "__func__", member))
                member = inspect.unwrap(member)
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    yield member


def test_every_annotation_resolves():
    # Fraction is the one name the package imports lazily, so it is
    # absent from the modules' globals on purpose
    unresolved = []
    for function in _defined_functions():
        try:
            typing.get_type_hints(function, localns={"Fraction": fractions.Fraction})
        except NameError as exc:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {exc}")
    assert not unresolved, unresolved


def _eval(value=1.0, bound=0.5):
    return pzcheck.EvalResult(value, bound)


# record -> (its fields, their defaults, a sample instance)
_RECORDS = {
    "PrimeTable": (("limit", "primes", "smallest_factor"), {},
                   lambda: pzcheck.sieve(12)),
    "FactoredInteger": (("n", "factors"), {},
                        lambda: pzcheck.factorize(12, pzcheck.sieve(12))),
    "EvalResult": (("value", "error_bound"), {}, _eval),
    "ProbeRow": (("eps", "lhs", "rhs", "note"), {"note": ""},
                 lambda: pzcheck.ProbeRow(0.1, _eval(), _eval(2.0))),
    "FitResult": (("leading", "linear", "constant", "rel_residual"), {},
                  lambda: pzcheck.FitResult(1.0, 2.0, 3.0, 0.0)),
    "RadicalTrace": (("s", "depth", "tail_mode", "values", "error_bounds"), {},
                     lambda: pzcheck.eval_nested(2.0, 3, pzcheck.TailMode.ONE_TAIL)),
    "Claim4Result": (("radical_value", "prime_zeta_value"), {},
                     lambda: pzcheck.Claim4Result(_eval(), _eval(0.25))),
    "ClaimReport": (("claim_id", "mode", "verdict", "parameters", "evidence"), {},
                    lambda: ClaimReport("CLAIM2_3", "NUMERIC", "CONSISTENT", {"s": 2.0})),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_contract(name):
    fields, defaults, sample = _RECORDS[name]
    record = sample()
    cls = type(record)
    assert cls.__name__ == name
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert isinstance(record, tuple) and len(record) == len(fields)
    assert not hasattr(record, "__dict__")
    assert list(record._asdict()) == list(fields)
    assert pickle.loads(pickle.dumps(record)) == record


def test_checked_records_check_every_construction_path():
    with pytest.raises(ValueError, match="non-finite"):
        _eval()._replace(value=math.nan)
    with pytest.raises(ValueError, match="bad error bound"):
        pzcheck.EvalResult._make([1.0, -1.0])
    # every pickle protocol, 0 and 1 included, unpickles through __new__
    forged = tuple.__new__(pzcheck.EvalResult, (math.nan, -1.0))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="non-finite"):
            pickle.loads(pickle.dumps(forged, protocol))
    # ClaimReport's __new__ gives each report its own parameters and
    # evidence; _make builds from all five fields and checks their count
    report = ClaimReport("CLAIM2_3", "NUMERIC", "CONSISTENT")
    assert report.parameters == {} and report.evidence == []
    assert report.parameters is not ClaimReport("CLAIM4", "NUMERIC", "CONSISTENT").parameters
    assert ClaimReport._make(report) == report
    with pytest.raises(TypeError):
        ClaimReport._make(report[:3])
