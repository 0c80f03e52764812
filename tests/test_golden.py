"""Golden output: stdout, stderr and exit status of a fixed invocation set.

Each file under tests/golden/ holds the runs of one pzcheck command line
through main(), once per --format value where the flag applies: exit
status, standard output and standard error, byte for byte.  The set
covers every claim/mode pair, every table selector, Migotti scans to
3000 and to 10^4 (check-migotti_remark-10000), a height table over
2000..2200 and one at the four-prime kernels 1155, 5005, 6545 and 7293
(table-cyclotomic-height-four-primes: the packed height at 1155, the
slice path at the wide-bound kernels 5005, 6545 and 7293, and the
largest kernel height to 10^4, 9 at 6545), a failing probe row, a
probe check whose every row fails on precision
(check-claim2_3-probe-tol1e-16), a zeta table with one row too close
to the pole, a radical table with non-existent truncations, a radical
table whose reference fold leaves the reals, the
radical-domain summary, a radical table and a radical-domain scan with
an s too close to the pole (table-radical-near-pole and
table-radical-domain-near-pole), a radical-domain scan with every s
too close to the pole, a numeric check too close to the pole, the
near-pole inputs the benchmark times (a probe table to eps = 1e-6, a
zeta table at s - 1 = 1e-6, 1e-5 and 1e-4 and a numeric check at
s = 1.000001), three runs far past zeta's clamp at s = 1000 (a numeric
check at s = 1e20, claim4 and a zeta table at s = 1e300), usage
errors (options a check or a table does not read, a non-finite or
negative tolerance, an s below 1, a radical depth of 0, both --max-n
caps and a probe eps grid with an eps so small that 1 + eps rounds to 1,
usage-probe-eps-below-spacing, among them) and the two subcommand help
pages.
test_golden_set_covers_every_selector_and_pipeline checks the first two
against the registries in cli,
test_structured_goldens_are_strict_json that every structured stdout
parses as JSON without NaN or Infinity, and
test_table_list_parameters_name_their_rows that every list option a
structured table echoes names its rows, one per value in order.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pzcheck import cli
from pzcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (file stem, argv without --format); each runs in both formats
_FORMATTED = (
    ("check-claim2_3-symbolic", ["check", "claim2_3", "--max-n", "500"]),
    ("check-claim2_3-symbolic-consistent", ["check", "claim2_3", "--max-n", "20"]),
    ("check-claim2_3-symbolic-1e5", ["check", "claim2_3", "--max-n", "100000"]),
    ("check-claim2_3-numeric", ["check", "claim2_3", "--mode", "numeric"]),
    ("check-claim2_3-numeric-s50", ["check", "claim2_3", "--mode", "numeric", "--s", "50"]),
    ("check-claim2_3-numeric-tol1e-16",
     ["check", "claim2_3", "--mode", "numeric", "--tol", "1e-16"]),
    ("check-claim2_3-numeric-near-pole",
     ["check", "claim2_3", "--mode", "numeric", "--s", "1.000000001"]),
    ("check-claim2_3-numeric-s1.000001",
     ["check", "claim2_3", "--mode", "numeric", "--s", "1.000001"]),
    ("check-claim2_3-numeric-s1e20",
     ["check", "claim2_3", "--mode", "numeric", "--s", "1e20"]),
    ("check-claim2_3-probe", ["check", "claim2_3", "--mode", "probe"]),
    ("check-claim2_3-probe-tol1e-16",
     ["check", "claim2_3", "--mode", "probe", "--tol", "1e-16"]),
    ("check-claim4", ["check", "claim4"]),
    ("check-claim4-s1.3", ["check", "claim4", "--s", "1.3"]),
    ("check-claim4-s1e300", ["check", "claim4", "--s", "1e300"]),
    ("check-migotti_remark", ["check", "migotti_remark"]),
    ("check-migotti_remark-3000", ["check", "migotti_remark", "--max-n", "3000"]),
    ("check-migotti_remark-10000", ["check", "migotti_remark", "--max-n", "10000"]),
    ("table-zeta", ["table", "zeta"]),
    ("table-zeta-near-pole", ["table", "zeta", "--s", "2,1.0000001"]),
    ("table-zeta-near-pole-grid", ["table", "zeta", "--s", "1.000001,1.00001,1.0001"]),
    ("table-zeta-s1e300", ["table", "zeta", "--s", "2,1e300"]),
    ("table-prime-zeta", ["table", "prime-zeta", "--s", "1.5,2,3"]),
    ("table-cyclotomic-height", ["table", "cyclotomic-height", "--n", "100..110"]),
    ("table-cyclotomic-height-2000-2200",
     ["table", "cyclotomic-height", "--n", "2000..2200"]),
    ("table-cyclotomic-height-four-primes",
     ["table", "cyclotomic-height", "--n", "1155,5005,6545,7293"]),
    ("table-probe", ["table", "probe"]),
    ("table-probe-failing-row", ["table", "probe", "--eps", "1e-6,1e-8"]),
    ("table-probe-to-1e-6", ["table", "probe", "--eps", "1e-1..1e-6"]),
    ("table-radical", ["table", "radical", "--s", "2", "--depth", "12"]),
    ("table-radical-negative-radicand", ["table", "radical", "--s", "1.2"]),
    ("table-radical-domain", ["table", "radical-domain"]),
    ("table-radical-near-pole", ["table", "radical", "--s", "1.0000001"]),
    ("table-radical-domain-near-pole",
     ["table", "radical-domain", "--s", "1.0000001,2"]),
    ("table-radical-domain-all-near-pole",
     ["table", "radical-domain", "--s", "1.0000001,1.00000001"]),
    ("usage-claim4-symbolic", ["check", "claim4", "--mode", "symbolic"]),
    ("usage-radical-two-s", ["table", "radical", "--s", "2,3"]),
    ("usage-claim2_3-over-cap", ["check", "claim2_3", "--max-n", "1000001"]),
    ("usage-migotti-over-cap", ["check", "migotti_remark", "--max-n", "10001"]),
    ("usage-claim2_3-numeric-max-n",
     ["check", "claim2_3", "--mode", "numeric", "--max-n", "5000000"]),
    ("usage-unknown-claim", ["check", "claim9"]),
    ("usage-cyclotomic-height-unused",
     ["table", "cyclotomic-height", "--n", "3..4", "--tol", "1e-3", "--depth", "7",
      "--eps", "1e-2"]),
    ("usage-claim2_3-probe-tol-inf", ["check", "claim2_3", "--mode", "probe", "--tol", "inf"]),
    ("usage-claim2_3-numeric-tol-negative",
     ["check", "claim2_3", "--mode", "numeric", "--tol", "-1"]),
    ("usage-radical-s-below-one", ["table", "radical", "--s", "0.5"]),
    ("usage-claim4-depth-zero", ["check", "claim4", "--depth", "0"]),
    ("usage-probe-eps-below-spacing", ["table", "probe", "--eps", "1e-15..1e-17"]),
)

INVOCATIONS = tuple(
    (stem, [argv + ["--format", fmt] for fmt in ("text", "structured")])
    for stem, argv in _FORMATTED
) + (
    ("help-check", [["check", "--help"]]),
    ("help-table", [["table", "--help"]]),
)


def run(argv: list[str]) -> str:
    """One in-process run of main(), rendered as a golden file's text."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse: --help and bad arguments
                status = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return (f"$ pzcheck {' '.join(argv)}\n[exit {status}]\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def render(argvs: list[list[str]]) -> str:
    return "".join(run(argv) for argv in argvs)


@pytest.mark.parametrize("name,argvs", INVOCATIONS, ids=[name for name, _ in INVOCATIONS])
def test_output_matches_golden(name, argvs):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(argvs) == want


def test_golden_set_covers_every_selector_and_pipeline():
    ran = [argv for name, argvs in INVOCATIONS if name.startswith(("check-", "table-"))
           for argv in argvs]
    selectors = {argv[1] for argv in ran if argv[0] == "table"}
    pipelines = {
        (argv[1].upper(), argv[argv.index("--mode") + 1].upper() if "--mode" in argv
         else next(iter(cli._PIPELINES[argv[1].upper()])))
        for argv in ran if argv[0] == "check"
    }
    assert set(cli._TABLES) <= selectors
    registered = {(claim, mode) for claim, modes in cli._PIPELINES.items() for mode in modes}
    assert registered <= pipelines


def test_golden_set_has_no_stale_files():
    recorded = {path.stem for path in GOLDEN.glob("*.txt")}
    assert recorded == {name for name, _ in INVOCATIONS}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _structured_stdouts():
    # (command, stdout) of every recorded structured run that printed
    for path in sorted(GOLDEN.glob("*.txt")):
        for run_text in path.read_text(encoding="utf-8").split("$ pzcheck ")[1:]:
            command, _, rest = run_text.partition("\n")
            stdout = rest.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
            if command.endswith("--format structured") and stdout:
                yield command, stdout


def test_structured_goldens_are_strict_json():
    parsed = 0
    for _, stdout in _structured_stdouts():
        json.loads(stdout, parse_constant=_refuse_constant)
        parsed += 1
    assert parsed == sum(not stem.startswith("usage-") for stem, _ in _FORMATTED)


def test_table_list_parameters_name_their_rows():
    # a list option is echoed as the values that ran: one row per value, in order
    checked = 0
    for command, stdout in _structured_stdouts():
        payload = json.loads(stdout)
        for key in ("s", "n", "eps"):
            if "table" in payload and isinstance(payload["parameters"].get(key), list):
                assert [row[key] for row in payload["rows"]] == payload["parameters"][key], command
                checked += 1
    # every table but radical, whose --s is one value, reads a list option
    assert checked == sum(stem.startswith("table-") and argv[1] != "radical"
                          for stem, argv in _FORMATTED)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argvs in INVOCATIONS:
        (GOLDEN / f"{name}.txt").write_text(render(argvs), encoding="utf-8")
        print(name, file=sys.stderr)


if __name__ == "__main__":
    _record()
