"""pyproject.toml: the package needs nothing outside the standard library,
and the test extra installs every package the suite imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(files):
    """Top-level names of every absolute import in the given files."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_test_extra_covers_the_suites_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    extra = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
             for requirement in project["optional-dependencies"]["test"]}
    files = [path for folder in ("tests", "bench") for path in (ROOT / folder).rglob("*.py")]
    local = {path.stem for path in files} | {"pzcheck"}
    third_party = _imported_packages(files) - local - set(sys.stdlib_module_names)
    assert "pytest" in third_party  # the scan sees the suite's imports at all
    assert third_party <= extra, sorted(third_party - extra)


def test_package_imports_only_the_standard_library():
    # backs the empty dependencies list asserted above
    imported = _imported_packages((ROOT / "src").rglob("*.py"))
    outside = imported - set(sys.stdlib_module_names)
    assert "sys" in imported  # the scan sees the package's imports at all
    assert not outside, sorted(outside)
