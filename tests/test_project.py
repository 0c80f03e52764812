"""pyproject.toml: the package needs nothing outside the standard library,
and the test extra installs every package the suite imports.  README.md:
its Python session runs as shown, and so does each command it shows."""

import ast
import contextlib
import doctest
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from pzcheck.cli import main

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


def test_readme_session_runs_as_shown():
    # each ```python block is one doctest session; the closing fence is
    # left out, or doctest would read it as the last expected output
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    runner, report = doctest.DocTestRunner(), []
    for block in re.finditer(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        lineno = readme.count("\n", 0, block.start(1))
        session = doctest.DocTestParser().get_doctest(block[1], {}, "README.md", None, lineno)
        runner.run(session, out=report.append)
    assert runner.tries, "README.md shows no Python session"
    assert not runner.failures, "".join(report)


def test_readme_commands_print_as_shown():
    # each fenced block that opens with `$ pzcheck ...` shows one command
    # and its stdout; a `...` line stands for any run of lines
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n\$ pzcheck (.*?)\n(.*?)^```$", readme, re.M | re.S)
    assert blocks, "README.md shows no pzcheck command"
    for command, shown in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(shlex.split(command)) == 0
        pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                          for line in shown.splitlines())
        assert re.fullmatch(pattern, out.getvalue()), f"$ pzcheck {command}\n{out.getvalue()}"
