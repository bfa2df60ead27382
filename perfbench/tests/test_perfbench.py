"""Tests of the benchmark's own code: tracer, ring generator, checks, names.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gmmn import cli  # noqa: E402
from gmmn.instance_graph import CYCLE, build_intersection_graph, find_cycle  # noqa: E402
from gmmn.pseudotree import build_reduction_plan, cut_degenerate_cycle  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def small_cases():
    """Cheap instances that reach every exact solver `auto` picks."""
    cases = [
        workloads.Case(f"small-{cls}", cli.generate(cls, n, 4 * n, 3))
        for cls, n in (("star", 5), ("tree", 6), ("cycle", 6), ("pseudotree", 6))
    ]
    cases.append(workloads.Case("small-general", cli.generate("general", 4, 8, 1)))
    cases.append(ring_case(12, 0))
    return cases


def ring_case(n, seed):
    ring = workloads.ring_instance(random.Random(seed), n)
    return workloads.Case("ring", cli.InstanceFile(tuple(ring)))


def gmmn_namespaces():
    """(module, attribute[, class attribute]) -> object, over all of gmmn."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name != "gmmn" and not name.startswith("gmmn."):
            continue
        for attr, value in vars(mod).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


class TestTracer:
    def test_uninstall_restores_every_attribute(self):
        before = gmmn_namespaces()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = gmmn_namespaces()
        finally:
            tracer.uninstall()
        after = gmmn_namespaces()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

        changed = {key for key in before if during[key] is not before[key]}
        assert ("gmmn.cli", "dispatch") in changed
        assert ("gmmn.star_dag", "AuxDag", "forward") in changed
        assert ("gmmn.geometry", "GridNetwork", "validate") in changed
        # Every namespace that bound a traced function sees the wrapper.
        for solver_module in ("tree_dp_fast", "pseudotree", "twdp", "approx_coloring"):
            assert (f"gmmn.{solver_module}", "build_intersection_graph") in changed
        traced_originals = {id(before[key]) for key in changed}
        assert not [key for key, value in during.items() if id(value) in traced_originals]

    def test_traced_and_untraced_runs_give_the_same_lengths(self):
        cases = small_cases()
        plain = run.run_loop(cli, cases, 0.0)
        tracer = tracing.Tracer()
        traced, passes, untraced_s, traced_s = run.traced_loop(cli, cases, 0.0, None, tracer)
        assert plain.failed == 0 and traced.failed == 0, plain.problems + traced.problems
        assert passes == 1
        assert traced.results == plain.results
        assert {r[0] for r in plain.results} == {"star", "tree-fast", "pseudotree", "twdp"}
        calls = tracer.per_function()
        assert calls["cli.solve_to_file"][0] == len(cases)
        assert calls["twdp.twdp_node"][0] > 0
        assert untraced_s > 0 and traced_s > 0

    def test_ring_counters(self):
        cases = [ring_case(30, 1)]
        tracer = tracing.Tracer()
        outcome, passes, _, _ = run.traced_loop(cli, cases, 0.0, None, tracer)
        assert outcome.failed == 0
        counters = tracer.counters(passes)
        assert counters["pseudotree.triples"] >= workloads.MIN_TRIPLES
        assert counters["pseudotree.derived_solves"] == counters["pseudotree.triples"]
        assert 1.0 <= counters["star_dag.nodes_per_grid_vertex"] <= 6.0
        assert counters["tree_dp_fast.cells"] > 0
        assert counters["twdp.fallback_frac"] == 0.0


class TestGenerators:
    def test_preconditions_hold(self):
        for n in (8, 40, workloads.RING_N):
            for seed in range(3):
                pairs = workloads.ring_instance(random.Random(seed), n)
                ig = build_intersection_graph(pairs)
                assert ig.class_tag == CYCLE
                assert cut_degenerate_cycle(pairs, find_cycle(ig.adjacency), ig) is None
                assert len(build_reduction_plan(pairs, ig).triples) >= workloads.MIN_TRIPLES

    def test_degenerate_rings_take_the_cut(self):
        for seed in range(3):
            pairs = workloads.ring_instance(random.Random(seed), 60, 0.15)
            ig = build_intersection_graph(pairs)
            assert ig.class_tag == CYCLE
            assert cut_degenerate_cycle(pairs, find_cycle(ig.adjacency), ig) is not None

    def test_workload_rings_meet_the_preconditions(self):
        for case in workloads.build("ring-triples", 0):
            assert case.n == workloads.RING_N
            assert workloads.ring_preconditions(list(case.instance.pairs)) is None

    def test_clusters_run_twdp_into_its_cap(self):
        case = next(c for c in workloads.build("small-mixed", 0) if c.kind == "small-cluster")
        tracer = tracing.Tracer()
        outcome, passes, _, _ = run.traced_loop(cli, [case], 0.0, None, tracer)
        assert outcome.failed == 0 and outcome.results[0][0] == "approx"
        counters = tracer.counters(passes)
        assert counters["twdp.fallback_frac"] == 1.0
        assert counters["twdp.wasted_s"] > 0
        assert counters["approx_coloring.k"] == workloads.CLUSTER_N

    def test_same_seed_same_instances(self):
        first = workloads.build("ring-triples", 5)
        second = workloads.build("ring-triples", 5)
        assert [c.instance for c in first] == [c.instance for c in second]


class TestChecks:
    def test_wrong_total_length_counts_as_failed(self):
        cases = small_cases()

        def corrupt_first(cli_mod, instance):
            sol, back = run.solve_path(cli_mod, instance)
            if instance is not cases[0].instance:
                return sol, back
            bad = dataclasses.replace(sol, total_length=sol.total_length + 1)
            return bad, cli_mod.parse_solution(cli_mod.serialize_solution(bad))

        outcome = run.run_loop(cli, cases, 0.0, solve=corrupt_first)
        assert outcome.failed == 1
        assert not outcome.times[0] and all(outcome.times[1:])
        metrics = run.end_to_end([0.1], cases, outcome)
        assert metrics["ok_frac"] == (outcome.attempted - 1) / outcome.attempted

    def test_reference_check(self):
        case = small_cases()[1]
        sol, back = run.solve_path(cli, case.instance)
        fp = run.fingerprint(case.instance.pairs)
        assert run.check(cli, sol, back, [fp, sol.solver, sol.total_length]) is None
        assert run.check(cli, sol, back, [fp, sol.solver, sol.total_length - 1])
        assert run.check(cli, sol, back, [fp, "approx", sol.total_length + 5]) is None
        approx = dataclasses.replace(sol, solver="approx", ratio=2)
        length = sol.total_length
        assert run.check(cli, approx, approx, [fp, "twdp", (length + 1) // 2]) is None
        assert run.check(cli, approx, approx, [fp, "twdp", (length - 1) // 2])


class TestDeclaredMetrics:
    def load(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            return json.load(fh)

    def test_printed_names_and_units_are_declared(self):
        bench = self.load()
        declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        cases = small_cases()
        outcome = run.run_loop(cli, cases, 0.0)
        printed = run.end_to_end([0.1, 0.2, 0.3], cases, outcome)
        assert {k: run.END_TO_END_UNITS[k] for k in printed} == declared_e2e

        tracer = tracing.Tracer()
        _, passes, untraced_s, traced_s = run.traced_loop(cli, cases, 0.0, None, tracer)
        printed = run.per_layer(tracer, passes, passes * len(cases), untraced_s, traced_s)
        units = run.per_layer_units()
        assert {k: units[k] for k in printed} == declared_layer

    def test_benchmark_json_shape(self):
        bench = self.load()
        assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        assert len(names) == len(set(names))
        assert len(bench["per_layer"]) <= 128
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
        assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
