"""Benchmark of the `gmmn` solve path; see perfbench/README.md.

    python3 perfbench/run.py --workload star-hub --seed 0 --seconds 20 --trace 0

Run from the repository root.  `--trace 0` measures with no tracing and
prints the end-to-end metrics; `--trace 1` solves every instance untraced
and then traced, pass after pass, and prints the per-layer metrics.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  Failure details go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# A pass solves each case back to back until this much solve time is spent.
REPEAT_S = 0.03
# Machine speed: a probe every PROBE_EVERY seconds; times are rescaled to a
# machine on which the probe takes PROBE_NOMINAL seconds.
PROBE_EVERY = 0.25
PROBE_NOMINAL = 1.2e-3
REFERENCES = os.path.join(HERE, "references.json")
TRACE_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "pairs_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

COUNTER_UNITS = {
    "instance_graph.builds_per_solve": "count",
    "star_dag.nodes_per_grid_vertex": "ratio",
    "tree_dp_fast.cells": "count",
    "tree_dp_fast.direct_frac": "frac",
    "pseudotree.triples": "count",
    "pseudotree.derived_solves": "count",
    "twdp.table_entries": "count",
    "twdp.fallback_frac": "frac",
    "twdp.wasted_s": "s",
    "approx_coloring.k": "count",
}

# Counters that are totals over a pass (the others are ratios).
PER_PASS_COUNTERS = (
    "tree_dp_fast.cells",
    "pseudotree.triples",
    "pseudotree.derived_solves",
    "twdp.table_entries",
    "twdp.wasted_s",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in tracing.FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for layer in tracing.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    units["trace.overhead"] = "ratio"
    return units


# ----------------------------------------------------------------------
# machine speed


def probe_work() -> float:
    """Seconds for a fixed slice of pure-Python work: tuples, dicts, sorting."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(2000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    frozenset(sorted(counts.items()))
    return time.perf_counter() - start


class Speedometer:
    """The machine's current speed, as the time `probe_work` takes.

    Shared machines slow down by up to half, for seconds or for a whole
    run, when other tenants get busy.  Pure-Python solver code slows down
    with the probe, so a time divided by the probe's time next to it
    carries much less of that drift.
    """

    def __init__(self) -> None:
        self.taken = -math.inf
        self.value = 0.0

    def reading(self, fresh: bool = False) -> float:
        """The probe time, re-measured when `fresh` or PROBE_EVERY old."""
        if fresh or time.perf_counter() - self.taken > PROBE_EVERY:
            self.value = min(probe_work() for _ in range(3))
            self.taken = time.perf_counter()
        return self.value


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled by the probe readings taken around them."""
    return seconds * PROBE_NOMINAL * 2 / (before + after)


# ----------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    """Import `gmmn` afresh and build the workload; (seconds, cli, cases)."""
    for name in [k for k in sys.modules if k == "gmmn" or k.startswith("gmmn.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("gmmn.cli")
    cases = workloads.build(workload, seed)
    return time.perf_counter() - start, cli, cases


def fingerprint(pairs) -> str:
    text = ";".join(f"{p.s.x} {p.s.y} {p.t.x} {p.t.y}" for p in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references(workload: str, seed: int, cases) -> Optional[list]:
    """Recorded [fingerprint, solver, total_length] per case, if they match."""
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None
    if recorded is None or len(recorded) != len(cases):
        return None
    if any(ref[0] != fingerprint(c.instance.pairs) for ref, c in zip(recorded, cases)):
        return None
    return recorded


# ----------------------------------------------------------------------
# the solve path and its checks


def solve_path(cli, instance):
    """What `gmmn solve` does for one instance, plus the file round trip."""
    sol, _warning = cli.solve_to_file(instance)
    back = cli.parse_solution(cli.serialize_solution(sol))
    return sol, back


def check(cli, sol, back, reference) -> Optional[str]:
    """Why a solve result is wrong, or None.

    The solvers check their own certificates while they run.  Here the
    round trip must be exact, the parsed solution must revalidate, and,
    when a reference is recorded, an exact result must equal it (or not
    exceed it, if the reference came from the approximation) and an
    approximate one must stay within its ratio times it.
    """
    if back != sol:
        return "serialize/parse round trip changed the solution"
    try:
        cli.validate_solution(back)
    except ValueError as exc:
        return f"solution does not revalidate: {exc}"
    if reference is None:
        return None
    _fp, ref_solver, ref_length = reference
    if sol.solver == "approx":
        if sol.total_length > sol.ratio * ref_length:
            return (f"approx length {sol.total_length} exceeds {sol.ratio} x"
                    f" reference {ref_length}")
    elif ref_solver == "approx":
        if sol.total_length > ref_length:
            return (f"exact length {sol.total_length} exceeds the recorded"
                    f" approximation {ref_length}")
    elif sol.total_length != ref_length:
        return f"total_length {sol.total_length} != reference {ref_length}"
    return None


@dataclass
class Outcome:
    """Per-case solve times (rescaled and wall clock), results, failures."""

    times: list[list[float]]
    wall: list[list[float]]
    results: list[Optional[tuple[str, int]]]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @classmethod
    def empty(cls, cases) -> "Outcome":
        return cls([[] for _ in cases], [[] for _ in cases], [None] * len(cases))


def solve_once(cli, cases, i: int, references, outcome: Outcome,
               solve: Callable = solve_path) -> Optional[float]:
    """Solve case `i`, check the result; its solve wall time, or None."""
    outcome.attempted += 1
    clock = time.perf_counter
    t0 = clock()
    try:
        sol, back = solve(cli, cases[i].instance)
    except Exception:
        outcome.failed += 1
        outcome.problems.append(f"case {i}: {traceback.format_exc()}")
        return None
    elapsed = clock() - t0
    problem = check(cli, sol, back, references[i] if references else None)
    result = (sol.solver, sol.total_length)
    if problem is None and outcome.results[i] not in (None, result):
        problem = f"result {result} differs from the earlier {outcome.results[i]}"
    if problem is not None:
        outcome.failed += 1
        outcome.problems.append(f"case {i} ({cases[i].kind}): {problem}")
        return None
    outcome.results[i] = result
    return elapsed


def run_loop(cli, cases, seconds: float, references=None,
             solve: Callable = solve_path) -> Outcome:
    """Closed loop, one instance at a time, in case order.

    Each pass solves every case back to back until REPEAT_S of its solve
    time has accumulated (at least once), so that cheap cases get several
    samples.  After the first whole pass the loop stops as soon as
    `seconds` have elapsed.  Only the solve path is timed; checks run
    between solves.
    """
    outcome = Outcome.empty(cases)
    speed = Speedometer()
    start = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - start < seconds:
        for i in range(len(cases)):
            if not first_pass and time.perf_counter() - start >= seconds:
                break
            spent = 0.0
            while spent < REPEAT_S:
                before = speed.reading()
                elapsed = solve_once(cli, cases, i, references, outcome, solve)
                if elapsed is None:
                    break
                after = speed.reading(fresh=elapsed > PROBE_EVERY)
                outcome.wall[i].append(elapsed)
                outcome.times[i].append(at_nominal_speed(elapsed, before, after))
                spent += elapsed
        first_pass = False
    return outcome


def traced_loop(cli, cases, seconds: float, references, tracer: tracing.Tracer):
    """Whole passes, each case solved untraced and then traced.

    Pairing the two solves of a case keeps drift in machine speed out of
    the overhead estimate.  Returns (outcome, passes, untraced s, traced s).
    """
    outcome = Outcome.empty(cases)
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i in range(len(cases)):
            plain = solve_once(cli, cases, i, references, outcome)
            tracer.instance = i
            tracer.install()
            try:
                timed = solve_once(cli, cases, i, references, outcome)
            finally:
                tracer.uninstall()
            if plain is not None and timed is not None:
                untraced += plain
                traced += timed
        passes += 1
    return outcome, passes, untraced, traced


# ----------------------------------------------------------------------
# metrics


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def solve_stats(cases, times: list[list[float]]) -> dict[str, float]:
    """p50, p90 and pairs per second; each case counts once, at its median."""
    solved = [(c.n, statistics.median(t)) for c, t in zip(cases, times) if t]
    if not solved:
        return {"solve_s_p50": math.nan, "solve_s_p90": math.nan, "pairs_per_s": 0.0}
    per_case = [t for _, t in solved]
    return {
        "solve_s_p50": statistics.median(per_case),
        "solve_s_p90": nearest_rank(per_case, 0.9),
        "pairs_per_s": sum(n for n, _ in solved) / sum(per_case),
    }


def end_to_end(setup_times: list[float], cases, outcome: Outcome) -> dict[str, float]:
    """The end-to-end metrics, solve times at nominal machine speed."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        **solve_stats(cases, outcome.times),
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, passes: int, solves: int,
              untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics, per pass over the workload's instances."""
    out: dict[str, float] = {}
    layer_ns = dict.fromkeys(tracing.LAYERS, 0)
    for name, (calls, self_ns, total_ns) in tracer.per_function().items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = self_ns / 1e9 / passes
        out[f"{name}.total_s"] = total_ns / 1e9 / passes
        layer_ns[tracing.LAYER_OF[name]] += self_ns
    for layer, ns in layer_ns.items():
        out[f"layer.{layer}.self_s"] = ns / 1e9 / passes
    for name, value in tracer.counters(solves).items():
        out[name] = value / passes if name in PER_PASS_COUNTERS else value
    out["trace.overhead"] = traced_s / untraced_s
    return out


# ----------------------------------------------------------------------
# the two kinds of run


def untraced_run(args, setup_times, cli, cases, references):
    outcome = run_loop(cli, cases, args.seconds, references)
    metrics = end_to_end(setup_times, cases, outcome)
    wall = solve_stats(cases, outcome.wall)
    solves = sum(len(t) for t in outcome.times)
    counts = {
        "setup_s": f"{len(setup_times)} set-ups",
        "ok_frac": f"{outcome.attempted} solves attempted",
        "peak_rss_mb": "1 process",
    }
    for name in wall:
        counts[name] = (f"{len(cases)} instances, {solves} solves;"
                        f" wall clock {wall[name]:.6g}")
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:12s} {value:12.6g} {END_TO_END_UNITS[name]:5s}"
              f" ({counts[name]})")
    return outcome, metrics, END_TO_END_UNITS


def traced_run(args, cli, cases, references):
    tracer = tracing.Tracer()
    outcome, passes, untraced_s, traced_s = traced_loop(
        cli, cases, args.seconds, references, tracer)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(TRACE_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
    metrics = per_layer(tracer, passes, passes * len(cases), untraced_s, traced_s)
    layers = {k: v for k, v in metrics.items() if k.startswith("layer.")}
    total = sum(layers.values())
    print(f"{args.workload}: {passes} traced passes over {len(cases)} instances,"
          f" tracing overhead x{metrics['trace.overhead']:.3f}")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {name:30s} {value:10.4f} s/pass  {100 * value / total:5.1f} %")
    return outcome, metrics, per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gmmn")):
        print(f"error: no gmmn sources under {SRC}", file=sys.stderr)
        return 2

    speed = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        before = speed.reading(fresh=True)
        seconds, cli, cases = setup(args.workload, args.seed)
        setup_times.append(at_nominal_speed(seconds, before, speed.reading(fresh=True)))
    references = load_references(args.workload, args.seed, cases)
    if references is None:
        print(f"no reference results for {args.workload} seed {args.seed}: checking"
              " by revalidation, round trip and the solvers' own certificates only")
    else:
        print(f"checking {len(cases)} instances against recorded reference results")

    if args.trace:
        outcome, metrics, units = traced_run(args, cli, cases, references)
    else:
        outcome, metrics, units = untraced_run(args, setup_times, cli, cases, references)
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
