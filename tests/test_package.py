"""The package namespace and the start-up import graph.

`import pzcheck` is lazy (PEP 562): every name in __all__ comes from its
home submodule on first use.  A default command imports only what it
runs, so fractions (with decimal), json and typing stay out of a
text-format check or table, which loads nothing beyond a bare argparse
parse but pzcheck's modules, math, __future__ and importlib's loaders.
Importing pzcheck.report, the claim report's record, validation rules
and rendering, loads neither argparse nor json nor a layer module.
Each graph is read from sys.modules in a fresh interpreter started with
-S, so no site hook preloads anything, and -B, so it writes no bytecode
into src/.

The package's seven records share one contract: each is a tuple with
named fields, no per-instance __dict__, _asdict and pickling, and the
records that check their fields check them on every path that builds one.
Every bounded float the layers return is an EvalResult, and outside
that class no arithmetic reads an error_bound: bounds combine only in
its operators.
Every annotation in the package resolves.
Dirichlet series are over the integers, so the only import of fractions
in the package is the probe fit's, inside zeta.fit_log_quadratic.

Every function the package defines runs in some golden command line
(tests/test_golden.py), traced from before pzcheck.cli is imported,
except the few listed in _NOT_RUN_BY_COMMANDS, each with its reason.
"""

import ast
import inspect
import json
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
from pzcheck.report import ClaimReport

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


def test_report_import_loads_no_argparse_json_or_layer_module():
    # the report contract can be used and tested without the command line
    loaded = _loaded("import sys, pzcheck.report")
    assert "pzcheck.report" in loaded
    unwanted = loaded & ({"argparse"} | _DEFERRED | _LAYERS)
    assert not unwanted, sorted(unwanted)


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


# functions no golden command line runs, each with the reason it stays
_NOT_RUN_BY_COMMANDS = {
    "pzcheck.__dir__": "dir(pzcheck) lists the lazy exports; test_dir_lists_every_export",
    "pzcheck.arith.mobius":
        "the tests' reference Mobius for dirichlet.invert; zeta reads mu off arith.omega_upto",
    "pzcheck.cyclotomic.IntPolynomial.__eq__": "value semantics of the exported Phi_n polynomial",
    "pzcheck.cyclotomic.IntPolynomial.__hash__": "value semantics of the exported Phi_n polynomial",
    "pzcheck.cyclotomic.IntPolynomial.__repr__": "value semantics of the exported Phi_n polynomial",
    "pzcheck.dirichlet.DirichletSeries.__init__":
        "builds a series from a caller's list; the operations adopt their own lists",
    "pzcheck.dirichlet.DirichletSeries.__hash__": "value semantics of the exported series",
    "pzcheck.dirichlet.DirichletSeries.__repr__": "value semantics of the exported series",
    "pzcheck.zeta.EvalResult._make": "record contract: _replace runs the field checks",
    "pzcheck.zeta.EvalResult.__reduce__": "record contract: unpickling runs the field checks",
    "pzcheck.zeta.EvalResult.__radd__": "refuses tuple + EvalResult, which would concatenate",
    "pzcheck.report.ClaimReport._make": "record contract: _replace runs validate()",
    "pzcheck.report.ClaimReport.__reduce__": "record contract: unpickling runs validate()",
    "pzcheck.report.parse_report":
        "reads a structured report back; test_check_goldens_round_trip_through_report",
}

# traces every Python call, from before pzcheck.cli is imported (its
# registries call converter factories, and its relative imports the
# package's __getattr__) through every golden command line
_TRACE_GOLDEN_COMMANDS = """
import json, sys
seen = set()
def profile(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import pzcheck.cli
sys.path.insert(0, sys.argv[1])
import test_golden
for _, argvs in test_golden.INVOCATIONS:
    test_golden.render(argvs)
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def test_golden_commands_run_every_function_but_the_listed_ones():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACE_GOLDEN_COMMANDS, os.path.dirname(__file__)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    seen = {(os.path.realpath(path), line) for path, line in json.loads(proc.stdout)}
    not_run = sorted(
        f"{function.__module__}.{function.__qualname__}" for function in _defined_functions()
        if (os.path.realpath(function.__code__.co_filename),
            function.__code__.co_firstlineno) not in seen
    )
    assert not_run == sorted(_NOT_RUN_BY_COMMANDS)


def test_every_annotation_resolves():
    unresolved = []
    for function in _defined_functions():
        try:
            typing.get_type_hints(function)
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
    "Claim4Result": (("radical_value", "prime_zeta_value"), {},
                     lambda: pzcheck.Claim4Result(_eval(), _eval(0.25))),
    "ClaimReport": (("claim_id", "mode", "verdict", "parameters", "evidence"), {},
                    lambda: ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE", {"s": 2.0})),
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
    report = ClaimReport("CLAIM2_3", "NUMERIC", "INCONCLUSIVE")
    assert report.parameters == {} and report.evidence == []
    assert report.parameters is not ClaimReport("CLAIM4", "NUMERIC", "INCONCLUSIVE").parameters
    assert ClaimReport._make(report) == report
    with pytest.raises(TypeError):
        ClaimReport._make(report[:3])


# each layer call that returns a value with an error bound
_BOUNDED = {
    "zeta_real": lambda: pzcheck.zeta_real(2.0),
    "prime_zeta": lambda: pzcheck.prime_zeta(2.0),
    "claim_lhs": lambda: pzcheck.claim_lhs(2.0),
    "claim_rhs": lambda: pzcheck.claim_rhs(2.0),
    "two_over": lambda: pzcheck.zeta_real(2.0).over(2.0),
    "eval_nested": lambda: pzcheck.eval_nested(2.0, 3, 1.0),
    "claim4_check.radical_value": lambda: pzcheck.claim4_check(2.0, 3).radical_value,
    "claim4_check.prime_zeta_value": lambda: pzcheck.claim4_check(2.0, 3).prime_zeta_value,
    "singularity_probe.lhs": lambda: pzcheck.singularity_probe([1e-2])[0].lhs,
    "singularity_probe.rhs": lambda: pzcheck.singularity_probe([1e-2])[0].rhs,
}


@pytest.mark.parametrize("name", sorted(_BOUNDED))
def test_bounded_values_are_eval_results(name):
    assert type(_BOUNDED[name]()) is pzcheck.EvalResult


def _bound_arithmetic(node, path, in_arithmetic=False):
    """path:line of each .error_bound that arithmetic reads outside class EvalResult.

    A bound passed to EvalResult(...) inside an expression is an error
    term joining through the operators, not arithmetic on the bound.
    """
    if isinstance(node, ast.ClassDef) and node.name == "EvalResult":
        return
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EvalResult":
        in_arithmetic = False
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        in_arithmetic = True
    elif in_arithmetic and isinstance(node, ast.Attribute) and node.attr == "error_bound":
        yield f"{path}:{node.lineno}"
    for child in ast.iter_child_nodes(node):
        yield from _bound_arithmetic(child, path, in_arithmetic)


def _scopes(hit, node, scope):
    """The enclosing module.function (or module) of each node that hit accepts."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if hit(node):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _scopes(hit, child, scope)


def _package_scopes(hit):
    """_scopes over every module of the package, in file name order."""
    package = os.path.dirname(pzcheck.__file__)
    found = []
    for path in sorted(os.listdir(package)):
        if path.endswith(".py"):
            with open(os.path.join(package, path)) as source:
                found.extend(_scopes(hit, ast.parse(source.read()), path[:-3]))
    return found


def test_fractions_is_imported_only_by_the_probe_fit():
    def imports_fractions(node):
        return (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "fractions")

    assert _package_scopes(imports_fractions) == ["zeta.fit_log_quadratic"]


def test_square_is_called_only_where_a_claim_form_is_spelled():
    # dirichlet.rhs_form writes the claim's right side once, for series and
    # EvalResults alike, and cli._claim4 squares 1 - P for claim4's squared
    # form; no other function spells a square of its own
    def calls_square(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "square")

    assert _package_scopes(calls_square) == ["cli._claim4", "dirichlet.rhs_form"]


def test_claim_series_are_built_only_by_one_cli_helper():
    # every check that compares the claim's exact sides reads them, and the
    # support of lhs - rhs, from cli._claim_support, which builds each once
    def builds_claim_series(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("claim_lhs_series", "claim_rhs_series"))

    assert [scope for scope in _package_scopes(builds_claim_series)
            if scope.startswith("cli.")] == ["cli._claim_support"] * 2


def test_smallest_factor_is_read_only_in_arith():
    # omega and squarefreeness are read off the sieve once, in
    # arith.omega_upto; factorize is the table's one other reader
    def reads_smallest_factor(node):
        return isinstance(node, ast.Attribute) and node.attr == "smallest_factor"

    assert _package_scopes(reads_smallest_factor) == ["arith.omega_upto", "arith.factorize"]


def test_bounds_combine_only_in_eval_result():
    # an error term joins as EvalResult(0.0, term); comparing a bound or
    # copying it into a fact is not arithmetic and stays allowed
    package = os.path.dirname(pzcheck.__file__)
    found = set()
    for path in os.listdir(package):
        if path.endswith(".py"):
            with open(os.path.join(package, path)) as source:
                found.update(_bound_arithmetic(ast.parse(source.read()), path))
    assert sorted(found) == []
