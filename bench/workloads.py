"""Seeded invocation plans for the two benchmark workloads.

A plan is the list of `pzcheck` command lines one benchmark run sends,
in order, to a single client that waits for each verdict before sending
the next (a closed loop with one client).  pzcheck sees only argv.

Sizes are drawn by stratified sampling: a parameter used k times in a
run takes one value from each of k equal slices of its range, inside
the middle half of the slice.  The offsets within the slices are one
point from each of k equal bands, dealt to the slices in a seeded
order, so every seed covers the whole range with nearly the same
total: the run's total work and its latency quantiles vary little from
seed to seed while the individual inputs still change.

The number of rounds in a plan comes from the time budget divided by a
fixed nominal round cost, so for a given budget every commit runs the
same amount of work, and a faster commit simply finishes sooner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One pzcheck command line plus what the checker needs to know.

    kind names the output checker; params hold the drawn inputs, parsed
    back from the argv strings so checker and program see equal values.
    """

    kind: str
    args: tuple[str, ...]
    params: dict

    def label(self) -> str:
        return "pzcheck " + " ".join(self.args)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    offsets = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(offsets)
    values = [lo + (i + 0.25 + 0.5 * u) * width for i, u in enumerate(offsets)]
    rng.shuffle(values)
    return values


def _stratified_int(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    return [min(hi, int(v)) for v in _stratified(rng, lo, hi + 1, count)]


def _formats(rng: random.Random, count: int) -> list[str]:
    out = ["text", "structured"] * (count // 2 + 1)
    out = out[:count]
    rng.shuffle(out)
    return out


def _check(kind, claim, fmt, *flags, **params) -> Invocation:
    return Invocation(kind, ("check", claim, *flags, "--format", fmt), params)


def _table(kind, selector, fmt, *flags, **params) -> Invocation:
    return Invocation(kind, ("table", selector, *flags, "--format", fmt), params)


def _s_text(s: float) -> str:
    return f"{s:.6g}"


def _interactive(rng: random.Random, rounds: int) -> list[Invocation]:
    # per round: 2 numeric, 2 claim4, 2 small symbolic, 1 probe and one
    # of each table; twelve short invocations dominated by start-up
    plan = []
    fmt = iter(_formats(rng, 12 * rounds))
    for s in _stratified(rng, 1.5, 4.0, 2 * rounds):
        st = _s_text(s)
        plan.append(_check("numeric", "claim2_3", next(fmt), "--mode", "numeric",
                           "--s", st, s=float(st)))
    for s, depth in zip(_stratified(rng, 2.0, 4.0, 2 * rounds),
                        _stratified_int(rng, 8, 30, 2 * rounds)):
        st = _s_text(s)
        plan.append(_check("claim4", "claim4", next(fmt), "--s", st, "--depth",
                           str(depth), s=float(st), depth=depth))
    for n in _stratified_int(rng, 30, 2000, 2 * rounds):
        plan.append(_check("symbolic", "claim2_3", next(fmt), "--max-n", str(n),
                           max_n=n))
    for _ in range(rounds):
        plan.append(_check("probe", "claim2_3", next(fmt), "--mode", "probe"))
    for selector in ("zeta", "prime-zeta"):
        for _ in range(rounds):
            s_values = [float(_s_text(s)) for s in sorted(_stratified(rng, 1.5, 6.0, 3))]
            plan.append(_table(selector, selector, next(fmt), "--s",
                               ",".join(map(repr, s_values)), s=s_values, tol=1e-12))
    for s, depth in zip(_stratified(rng, 2.0, 4.0, rounds),
                        _stratified_int(rng, 8, 30, rounds)):
        st = _s_text(s)
        plan.append(_table("radical", "radical", next(fmt), "--s", st, "--depth",
                           str(depth), s=float(st), depth=depth))
    for depth in _stratified_int(rng, 8, 30, rounds):
        plan.append(_table("radical-domain", "radical-domain", next(fmt), "--depth",
                           str(depth), depth=depth))
    for lo, width in zip(_stratified_int(rng, 1, 120, rounds),
                         _stratified_int(rng, 20, 80, rounds)):
        hi = lo + width
        plan.append(_table("cyclotomic-height", "cyclotomic-height", next(fmt),
                           "--n", f"{lo}..{hi}", lo=lo, hi=hi))
    rng.shuffle(plan)
    return plan


def _series(rng: random.Random, rounds: int) -> list[Invocation]:
    fmt = iter(_formats(rng, rounds))
    return [
        _check("symbolic", "claim2_3", next(fmt), "--max-n", str(n), max_n=n)
        for n in _stratified_int(rng, 20_000, 50_000, rounds)
    ]


def _near_pole_deltas(rng: random.Random, count: int) -> list[float]:
    # log-uniform over [2e-6, 1e-4]; the Euler-Maclaurin cutoff, hence
    # the cost, grows like 1/delta
    return [float(f"{10.0 ** x:.4g}")
            for x in _stratified(rng, math.log10(2e-6), -4.0, count)]


def _near_pole(rng: random.Random, rounds: int) -> list[Invocation]:
    # per round: one probe table down to eps = 1e-6, four numeric checks
    # and four zeta tables at s = 1 + delta, delta in [2e-6, 1e-4]
    plan = []
    fmt = iter(_formats(rng, 9 * rounds))
    starts = [1, 2, 3, 4] * rounds
    rng.shuffle(starts)
    for a in starts[:rounds]:
        grid = [10.0 ** -k for k in range(a, 7)]
        plan.append(_table("probe-table", "probe", next(fmt), "--eps", f"1e-{a}..1e-6",
                           eps=grid, tol=1e-12))
    for delta in _near_pole_deltas(rng, 4 * rounds):
        st = f"{1.0 + delta:.12g}"
        plan.append(_check("numeric", "claim2_3", next(fmt), "--mode", "numeric",
                           "--s", st, s=float(st)))
    # zeta(1 + delta) is about 1/delta; a tolerance of 1e-11 to 1e-10 of
    # that sits far above its double spacing (about 2e-16 of it), so an
    # error bound that counts rounding can still meet it
    for delta, rel in zip(_near_pole_deltas(rng, 4 * rounds),
                          _stratified(rng, 1e-11, 1e-10, 4 * rounds)):
        st = f"{1.0 + delta:.12g}"
        tol = float(f"{rel / delta:.3g}")
        plan.append(_table("zeta", "zeta", next(fmt), "--s", st, "--tol", repr(tol),
                           s=[float(st)], tol=tol))
    rng.shuffle(plan)
    return plan


def _migotti(rng: random.Random, rounds: int) -> list[Invocation]:
    # per round: one Migotti scan and two cyclotomic-height tables
    plan = []
    fmt = iter(_formats(rng, 3 * rounds))
    for n in _stratified_int(rng, 3000, 5000, rounds):
        plan.append(_check("migotti", "migotti_remark", next(fmt), "--max-n", str(n),
                           max_n=n))
    for lo, width in zip(_stratified_int(rng, 2000, 4800, 2 * rounds),
                         _stratified_int(rng, 100, 200, 2 * rounds)):
        hi = min(lo + width, 5000)
        plan.append(_table("cyclotomic-height", "cyclotomic-height", next(fmt),
                           "--n", f"{lo}..{hi}", lo=lo, hi=hi))
    rng.shuffle(plan)
    return plan


# name -> parts, each (plan function, nominal seconds per round on a
# 2-core x86 host at the commit that defined the benchmark).  A run gives
# each part an equal share of its budget.  Why each workload exists:
WORKLOADS = {
    # short invocations; start-up and import are most of each one, and
    # every compute module runs at a small size
    "interactive": ((_interactive, 2.8),),
    # the long invocations, a third of the time each: exact Fraction
    # Dirichlet algebra at N in [2e4, 5e4], Euler-Maclaurin summations
    # whose cutoff grows like 1/eps, and cyclotomic construction and
    # heights for n in [2000, 5000].  They share one workload so that a
    # run can be long enough to average over the host's speed drift
    "compute": ((_series, 2.5), (_near_pole, 7.0), (_migotti, 2.85)),
}


def plan(workload: str, seed: int, budget_s: float) -> list[Invocation]:
    """The invocations one run sends, fixed by workload, seed and budget."""
    rng = random.Random(f"{workload}:{seed}")
    parts = WORKLOADS[workload]
    invocations = []
    for build, round_s in parts:
        invocations += build(rng, max(1, round(budget_s / len(parts) / round_s)))
    rng.shuffle(invocations)
    return invocations


WARM_UP = ("table", "zeta", "--s", "2")
