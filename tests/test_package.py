"""The package namespace and the start-up import graph.

`import pzcheck` is lazy (PEP 562): every name in __all__ comes from its
home submodule on first use.  A default command imports only what it
runs, so fractions (with decimal) and json stay out of a text-format
check or table; each graph is read from sys.modules in a fresh
interpreter started with -S, so no site hook preloads anything.
"""

import fractions
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import pzcheck

SRC = Path(__file__).resolve().parent.parent / "src"

# the stdlib modules a default text-format command does not need
_DEFERRED = {"fractions", "decimal", "json"}

# the modules bench/layers.py's Recorder.install wraps: it patches only
# the pzcheck modules loaded by `import pzcheck.cli`, so a command that
# stopped loading one would silently lose that module's spans
_LAYERS = {f"pzcheck.{name}" for name in ("arith", "cyclotomic", "dirichlet", "radical", "zeta")}


def _loaded(code: str, *argv: str) -> set[str]:
    """sys.modules after code runs in a fresh `python -S` with src on the path."""
    script = code + "\nprint(*sys.modules, file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
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


@pytest.mark.parametrize("argv", [
    ["check", "claim2_3", "--mode", "numeric"],
    ["check", "claim4"],
    ["check", "claim2_3", "--max-n", "200"],
    ["table", "zeta"],
])
def test_text_commands_leave_fractions_and_json_unloaded(argv):
    loaded = _run_main(*argv)
    assert "pzcheck.cli" in loaded
    assert not loaded & _DEFERRED, sorted(loaded & _DEFERRED)


def test_structured_output_loads_json():
    assert "json" in _run_main("check", "claim2_3", "--mode", "numeric",
                               "--format", "structured")


def test_cli_import_loads_every_layer_module():
    # guards the traced benchmark (bench/layers.py, Recorder.install):
    # deferring a submodule import in cli must fail here first
    assert _LAYERS <= _loaded("import sys, pzcheck.cli")


@pytest.mark.parametrize("name", sorted(set(pzcheck.__all__) - {"Rational"}))
def test_exported_name_is_its_home_modules_object(name):
    home = import_module(f"pzcheck.{pzcheck._HOME[name]}")
    value = getattr(pzcheck, name)
    assert value is getattr(home, name)
    # a function or class is exported from the module that defines it
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_rational_is_fraction():
    assert pzcheck.Rational is fractions.Fraction
    assert "Rational" in pzcheck.__all__


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
