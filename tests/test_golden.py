"""Golden output: stdout, stderr and exit status of a fixed invocation set.

Each file under tests/golden/ holds the runs of one pzcheck command line
through main(), once per --format value where the flag applies: exit
status, standard output and standard error, byte for byte.  The set
covers every claim/mode pair, every table selector, Migotti scans to
3000 and to 10^4 (check-migotti_remark-10000), a height table over
2000..2200, one at the four-prime kernels 1155, 5005, 6545 and 7293
(table-cyclotomic-height-four-primes: one-byte digits at 1155,
two-byte digits at the wide-bound kernels 5005, 6545 and 7293, and the
largest kernel height to 10^4, 9 at 6545) and one at all nine
wide-bound kernels to 10^4, whose heights are counted on two-byte
digits (table-cyclotomic-height-wide-kernels), a failing probe row, a
probe check whose every row fails on precision
(check-claim2_3-probe-tol1e-16), a zeta table with one row too close
to the pole, a radical table with non-existent truncations, a radical
table whose reference fold leaves the reals, the
radical-domain summary, a radical table and a radical-domain scan with
an s too close to the pole (table-radical-near-pole and
table-radical-domain-near-pole), a radical-domain scan with every s
too close to the pole, a claim4 check and a radical table at s = 1.6
and the depth cap 64 (check-claim4-s1.6-depth64, whose tail bracket
2^(4 - 2^64 * 1.6) underflows to 0, and table-radical-s1.6-depth64,
whose folds leave the reals at some depths), a claim4 check at depth 2
whose tail bracket, 0.033 at s = 2, covers the gap of 0.0046
(check-claim4-depth2, INCONCLUSIVE), a numeric check too close to the
pole, the
near-pole inputs the benchmark times (a probe table to eps = 1e-6, a
zeta table at s - 1 = 1e-6, 1e-5 and 1e-4 and a numeric check at
s = 1.000001), a numeric check at s = 20 that refutes on a one-ulp
difference against a far smaller combined bound
(check-claim2_3-numeric-s20, recorded before that bound is made
honest) and a claim4 check at s = 20 that refutes on a gap of 5.9e-17
against a bound of 1.2e-18, where the true gap is about 2.9e-30
(check-claim4-s20, likewise), three runs far past zeta's clamp at
s = 1000 (a numeric check at s = 1e20, claim4 and a zeta table at
s = 1e300), usage
errors (options a check or a table does not read, a non-finite or
negative tolerance, an s below 1, a radical depth of 0, both --max-n
caps, a probe eps grid with an eps so small that 1 + eps rounds to 1,
usage-probe-eps-below-spacing, and a radical table with two --s values
and a bad --depth, usage-radical-two-s-bad-depth, which shows the error
that wins, among them) and the two subcommand help pages.
test_golden_set_covers_every_selector_and_pipeline checks the first two
against the registries in cli,
test_structured_goldens_are_strict_json that every structured stdout
parses as JSON without NaN or Infinity,
test_check_goldens_round_trip_through_report that pzcheck.report reads
every check's structured stdout back, renders both of its stdouts from
it and reads the recorded verdict off the recorded evidence,
test_every_fact_rule_is_recorded_in_a_check_golden that every fact
name report.FACT_RULES holds a row for occurs in some check's
evidence, test_table_list_parameters_name_their_rows that every
list option a structured table echoes names its rows, one per value in
order, test_paper_map_verdicts_hold that every command in README's
paper map prints the verdict the map states, and
test_paper_map_smallest_catches_hold that each smallest catch the map
states catches the error and nothing smaller does.

tests/golden/traffic-seed1.json pins the benchmark's traffic the same
way, more briefly: for each distinct command line of the two seed-1
plans, bench/workloads.plan(workload, 1, 44) for interactive and
compute, in first-seen order, it stores the first 16 hex digits of the
SHA-256 of that command line's run() text.  The command lines were
taken from the plans once; re-recording re-hashes the stored list, so
the test reads only this file and a change to the workloads needs no
test change.  test_benchmark_traffic_matches_its_hashes runs every
stored command line through main() in this process and names the
first whose hash moved.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

which, like the test run, writes no bytecode into src/, and review the
diff of tests/golden/ before committing it.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True  # re-recording leaves no bytecode in src/ to skew a later timing
from pzcheck import cli
from pzcheck.cli import main
from pzcheck.report import CHECKS, FACT_RULES, emit_report, parse_report, verdict_of

GOLDEN = Path(__file__).parent / "golden"
TRAFFIC = GOLDEN / "traffic-seed1.json"

# (file stem, argv without --format); each runs in both formats
_FORMATTED = (
    ("check-claim2_3-symbolic", ["check", "claim2_3", "--max-n", "500"]),
    ("check-claim2_3-symbolic-consistent", ["check", "claim2_3", "--max-n", "20"]),
    ("check-claim2_3-symbolic-1e5", ["check", "claim2_3", "--max-n", "100000"]),
    ("check-claim2_3-numeric", ["check", "claim2_3", "--mode", "numeric"]),
    ("check-claim2_3-numeric-s20", ["check", "claim2_3", "--mode", "numeric", "--s", "20"]),
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
    ("check-claim4-s1.6-depth64", ["check", "claim4", "--s", "1.6", "--depth", "64"]),
    ("check-claim4-s20", ["check", "claim4", "--s", "20"]),
    ("check-claim4-depth2", ["check", "claim4", "--depth", "2"]),
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
    ("table-cyclotomic-height-wide-kernels",
     ["table", "cyclotomic-height", "--n", "5005,6545,7293,7315,7735,8151,8645,8855,9867"]),
    ("table-probe", ["table", "probe"]),
    ("table-probe-failing-row", ["table", "probe", "--eps", "1e-6,1e-8"]),
    ("table-probe-to-1e-6", ["table", "probe", "--eps", "1e-1..1e-6"]),
    ("table-radical", ["table", "radical", "--s", "2", "--depth", "12"]),
    ("table-radical-negative-radicand", ["table", "radical", "--s", "1.2"]),
    ("table-radical-s1.6-depth64", ["table", "radical", "--s", "1.6", "--depth", "64"]),
    ("table-radical-domain", ["table", "radical-domain"]),
    ("table-radical-near-pole", ["table", "radical", "--s", "1.0000001"]),
    ("table-radical-domain-near-pole",
     ["table", "radical-domain", "--s", "1.0000001,2"]),
    ("table-radical-domain-all-near-pole",
     ["table", "radical-domain", "--s", "1.0000001,1.00000001"]),
    ("usage-claim4-symbolic", ["check", "claim4", "--mode", "symbolic"]),
    ("usage-radical-two-s", ["table", "radical", "--s", "2,3"]),
    ("usage-radical-two-s-bad-depth", ["table", "radical", "--s", "2,3", "--depth", "0"]),
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
         else CHECKS[argv[1].upper()][0])
        for argv in ran if argv[0] == "check"
    }
    assert set(cli._TABLES) <= selectors
    assert set(cli._PIPELINES) <= pipelines


def test_golden_set_has_no_stale_files():
    recorded = {path.stem for path in GOLDEN.glob("*.txt")}
    assert recorded == {name for name, _ in INVOCATIONS}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _stdouts(path: Path):
    # (command, stdout) of every run recorded in one golden file
    for run_text in path.read_text(encoding="utf-8").split("$ pzcheck ")[1:]:
        command, _, rest = run_text.partition("\n")
        yield command, rest.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]


def _structured_stdouts():
    # (command, stdout) of every recorded structured run that printed
    for path in sorted(GOLDEN.glob("*.txt")):
        for command, stdout in _stdouts(path):
            if command.endswith("--format structured") and stdout:
                yield command, stdout


def test_structured_goldens_are_strict_json():
    parsed = 0
    for _, stdout in _structured_stdouts():
        json.loads(stdout, parse_constant=_refuse_constant)
        parsed += 1
    assert parsed == sum(not stem.startswith("usage-") for stem, _ in _FORMATTED)


@pytest.mark.parametrize("stem", [stem for stem, _ in _FORMATTED if stem.startswith("check-")])
def test_check_goldens_round_trip_through_report(stem):
    # parse_report reads the recorded structured report back, its verdict
    # is the one verdict_of reads off its evidence, and emit_report renders
    # both recorded stdouts from it, byte for byte
    stdout = {command.rsplit(" ", 1)[1]: out for command, out in _stdouts(GOLDEN / f"{stem}.txt")}
    parsed = parse_report(stdout["structured"])
    assert parsed.verdict == verdict_of(parsed.mode, parsed.evidence)
    assert emit_report(parsed, "structured") + "\n" == stdout["structured"]
    assert emit_report(parsed, "text") + "\n" == stdout["text"]


def test_every_fact_rule_is_recorded_in_a_check_golden():
    # a FACT_RULES row that no recorded check carries is dead, so each new row lands with a golden
    recorded = {fact["name"] for command, stdout in _structured_stdouts()
                if command.startswith("check ") for fact in json.loads(stdout)["evidence"]}
    assert FACT_RULES.keys() <= recorded


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


def _paper_map() -> list[tuple[str, str, str, str]]:
    # (statement, command, verdict, smallest catch) of each row of README's paper map
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The paper, statement by statement\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("| ").split(" | ") for line in section.splitlines() if line.startswith("| ")]
    assert rows[0][4] == "smallest catch"
    return [(row[0], row[2].strip("`"), row[3], row[4]) for row in rows[2:]]  # past header and rule


def test_paper_map_verdicts_hold():
    # every command README's paper map lists prints the verdict the map states
    ran = 0
    for statement, command, verdict, _ in _paper_map():
        if command == "—":  # not reproduced yet
            assert verdict == "—", statement
            continue
        argv = command.removeprefix("pzcheck ").split()
        assert f"\nverdict : {verdict}\n" in run(argv), statement
        ran += 1
    assert ran == 5


def _with_option(argv: list[str], option: str, value: str) -> list[str]:
    # argv with option set to value, in place of any value it had
    if option in argv:
        at = argv.index(option)
        argv = argv[:at] + argv[at + 2:]
    return argv + [option, value]


def _rounded_sides_differ(text: str, places: int) -> bool:
    # the first two evidence values, the claim's two sides, rounded to places
    first, second = re.findall(r"^  - \w+: value=(\S+)", text, re.MULTILINE)[:2]
    return round(float(first), places) != round(float(second), places)


def test_paper_map_smallest_catches_hold():
    # "N = n": n coefficients refute and n - 1 do not; "k places at s = x":
    # at s = x the printed sides, rounded to k places, differ, and to k - 1 agree
    caught = 0
    for statement, command, verdict, catch in _paper_map():
        argv = command.removeprefix("pzcheck ").split()
        if catch.startswith("N = "):
            n = int(catch.removeprefix("N = "))
            at, below = (run(_with_option(argv, "--max-n", str(m))) for m in (n, n - 1))
            assert "\nverdict : REFUTED\n" in at, statement
            assert "\nverdict : CONSISTENT\n" in below, statement
            caught += 1
        for k, s in re.findall(r"(\d+) places? at s = ([\d.]+)", catch):
            text = run(_with_option(argv, "--s", s))
            assert f"\nverdict : {verdict}\n" in text, (statement, s)
            assert _rounded_sides_differ(text, int(k)), (statement, s)
            assert not _rounded_sides_differ(text, int(k) - 1), (statement, s)
            caught += 1
    assert caught == 5


def _digest(argv: list[str]) -> str:
    return hashlib.sha256(run(argv).encode("utf-8")).hexdigest()[:16]


def test_benchmark_traffic_matches_its_hashes():
    traffic = json.loads(TRAFFIC.read_text(encoding="utf-8"))
    for workload, runs in traffic.items():
        for argv, digest in runs:
            assert _digest(argv) == digest, f"{workload}: pzcheck {' '.join(argv)}"


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argvs in INVOCATIONS:
        (GOLDEN / f"{name}.txt").write_text(render(argvs), encoding="utf-8")
        print(name, file=sys.stderr)
    traffic = json.loads(TRAFFIC.read_text(encoding="utf-8"))
    rehashed = {workload: [[argv, _digest(argv)] for argv, _ in runs]
                for workload, runs in traffic.items()}
    TRAFFIC.write_text(_traffic_json(rehashed), encoding="utf-8")
    print(TRAFFIC.stem, file=sys.stderr)


def _traffic_json(traffic: dict) -> str:
    # one command line per line, so a re-recorded hash shows as a one-line diff
    blocks = [f"  {json.dumps(workload)}: [\n"
              + ",\n".join(f"    {json.dumps(entry)}" for entry in runs) + "\n  ]"
              for workload, runs in traffic.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    _record()
