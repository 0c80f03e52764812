"""pzcheck benchmark: time to verdict of `python -m pzcheck`, as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pzcheck is imported from `src`.
Each invocation is its own interpreter (start-up and `import pzcheck`
included), sent by one client that waits for each verdict before the
next: a closed loop with one client, which with the benchmark's own
process fits two cores.  Every output is checked against independent
references (bench/oracle.py) after the timed region; a failure is
counted, never fatal.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1
it sends the same kind of plan at half the budget, each invocation once
plainly and once through bench/traced_child.py, and reports per-layer
times from the traced children plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy

from layers import LayerTotals
from oracle import Oracle
from workloads import WARM_UP, WORKLOADS, plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CHILD = Path(__file__).resolve().parent / "traced_child.py"

SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
# no invocation starts after this many seconds, and every child is
# killed at the hard limit, so a run always ends inside 180 s
START_LIMIT_S = 140.0
HARD_LIMIT_S = 170.0

# the module whose spans must be non-zero on each workload; a binding
# left unwrapped would otherwise read as zero time
DOMINANT = {
    "interactive": ("arith", "dirichlet", "zeta", "radical", "cyclotomic"),
    "compute": ("dirichlet", "zeta", "cyclotomic"),
}


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


class Runner:
    """Starts children one at a time and accounts for each with wait4."""

    def __init__(self, started: float):
        self.started = started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def may_start(self) -> bool:
        return time.perf_counter() - self.started < START_LIMIT_S

    def run(self, argv: list[str]) -> Child:
        deadline = self.started + HARD_LIMIT_S
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        drained = False
        try:
            out, err = _drain(proc, deadline)
            drained = True
        finally:
            if not drained:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        return Child(proc.returncode, out, err, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that only imports pzcheck."""
        return self.run([sys.executable, "-c", "import pzcheck"]).wall_s

    def pzcheck(self, args) -> Child:
        return self.run([sys.executable, "-m", "pzcheck", *args])

    def traced(self, args) -> Child:
        return self.run([sys.executable, str(TRACED_CHILD), *args])


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return tuple(b"".join(c).decode("utf-8", "replace") for c in chunks.values())


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it.

    With fewer than eleven samples no percentile qualifies, and the
    maximum is reported instead; the label says which was used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def import_times(runner: Runner, samples: dict[str, list[float]]) -> None:
    """Add the cumulative -X importtime of each named package, fresh interpreter."""
    child = runner.run([sys.executable, "-X", "importtime", "-c", "import pzcheck"])
    for line in child.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in samples:
            samples[fields[2].strip()].append(int(fields[1]) * 1e-6)


def environment() -> str:
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((SRC / "pzcheck").glob("*.py"))}
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"mpmath {mpmath.__version__}, nproc {os.cpu_count()} "
            f"(usable {len(os.sched_getaffinity(0))}); src lines {sum(lines.values())}: "
            + " ".join(f"{k}={v}" for k, v in lines.items()))


class Outcome:
    """Check results for the children of one run."""

    def __init__(self):
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.bound_violations = 0
        self.failures: list[str] = []

    def check(self, inv, child: Child) -> bool:
        found = self.oracle.check(inv.kind, inv.params, child.returncode, child.stdout)
        self.attempted += 1
        self.bound_violations += found.bound_violations
        if not found.ok:
            self.failed += 1
            self.failures.append(f"{inv.label()}: {found.reason}")
        return found.ok


def warm_up(runner: Runner, traced: bool) -> None:
    # compiles __pycache__ so that no timed sample pays for it
    child = runner.pzcheck(WARM_UP)
    if traced:
        child = runner.traced(WARM_UP) if child.returncode == 0 else child
    if child.returncode != 0:
        sys.exit(f"warm-up invocation failed ({child.returncode}): {child.stderr.strip()}")


def end_to_end(args, runner: Runner, outcome: Outcome, report: list[str]) -> dict:
    warm_up(runner, traced=False)
    invocations = plan(args.workload, args.seed, args.seconds)
    # set-up samples are spread over the run, between invocations and
    # outside their latencies, so one slow moment of the host cannot
    # move all of them
    every = max(1, len(invocations) // SETUP_SAMPLES)
    setup, children = [], []
    for i, inv in enumerate(invocations):
        if not runner.may_start():
            break
        if i % every == 0 and len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_time())
        children.append((inv, runner.pzcheck(inv.args)))
    setup += [runner.setup_time() for _ in range(len(setup), SETUP_SAMPLES)]
    wall = sum(child.wall_s for _, child in children)

    passed = sum(outcome.check(inv, child) for inv, child in children)
    latencies = [child.wall_s for _, child in children]
    tail, tail_label = tail_latency(latencies)
    report.append(f"invocations: {len(children)} of {len(invocations)} planned; "
                  f"latency_tail_s is the {tail_label}; "
                  f"setup_s is the median of {SETUP_SAMPLES}")
    report.append(f"zeta.bound_violations {outcome.bound_violations} (reported values "
                  "farther from mpmath than their own error_bound)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(child.cpu_s for _, child in children), "s"),
        "verdicts_per_s": (passed / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (max(child.maxrss_kb for _, child in children) / 1024, "MB"),
    }


def per_layer(args, runner: Runner, outcome: Outcome, report: list[str]) -> dict:
    warm_up(runner, traced=True)
    invocations = plan(args.workload, args.seed, args.seconds / 2)
    every = max(1, len(invocations) // IMPORTTIME_SAMPLES)
    import_samples: dict[str, list[float]] = {"pzcheck": [], "numpy": []}
    import_runs = 0
    totals = LayerTotals()
    plain_wall = traced_wall = 0.0
    plain_latencies = []
    done = 0
    for i, inv in enumerate(invocations):
        if not runner.may_start():
            break
        if i % every == 0 and import_runs < IMPORTTIME_SAMPLES:
            import_times(runner, import_samples)
            import_runs += 1
        plain = runner.pzcheck(inv.args)
        traced = runner.traced(inv.args)
        outcome.check(inv, plain)
        outcome.check(inv, traced)
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
        plain_latencies.append(plain.wall_s)
        done += 1
        try:
            totals.add(json.loads(traced.stderr.splitlines()[-1]))
        except (IndexError, ValueError):
            pass  # the failed check above already counts this child

    for _ in range(import_runs, IMPORTTIME_SAMPLES):
        import_times(runner, import_samples)
    # a package that is no longer imported reads 0
    imports = {name: statistics.median(v) if v else 0.0 for name, v in import_samples.items()}

    missing = [m for m in DOMINANT[args.workload] if totals.module_calls(m) == 0]
    if missing:
        sys.exit(f"traced run recorded no spans for {', '.join(missing)}: "
                 "a binding site was left unwrapped")

    metrics = {
        "import.pzcheck_s": (imports["pzcheck"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        **totals.metrics(),
        "zeta.bound_violations": (outcome.bound_violations, "count"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "failed_ratio": (outcome.failed / max(outcome.attempted, 1), "ratio"),
    }
    main_s = metrics["cli.main_s"][0]
    shares = " ".join(f"{m}={metrics[m + '.total_s'][0] / main_s:.2f}"
                      for m in ("dirichlet", "zeta", "radical", "cyclotomic")) if main_s else "-"
    report.append(f"traced invocations: {done} of {len(invocations)} planned, each also run "
                  f"untraced; share of cli.main_s by module: {shares}")
    if plain_latencies:
        report.append(f"import.pzcheck_s / untraced latency p50 = "
                      f"{imports['pzcheck'] / statistics.median(plain_latencies):.2f}")
    return metrics


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pzcheck" / "__init__.py").is_file():
        sys.exit(f"no pzcheck sources under {SRC}; run from the root of a source checkout")

    runner = Runner(started)
    outcome = Outcome()
    report = [environment(), f"workload {args.workload}, seed {args.seed}, "
              f"{args.seconds} s budget, trace {args.trace}"]
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, runner, outcome, report)

    for failure in outcome.failures:
        report.append(f"FAILED {failure}")
    report.append(f"attempted {outcome.attempted}, failed {outcome.failed}")
    for name, (value, unit) in metrics.items():
        report.append(f"{name:32s} {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
