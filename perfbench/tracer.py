"""Outside-in tracer for the `gmmn` layers.

`Tracer.install` replaces each traced function with a wrapper in every
`gmmn` module namespace that bound it (the solvers use `from .x import y`,
so one function can sit in several namespaces) and replaces traced methods
on their class.  `Tracer.uninstall` puts every original object back.  The
wrappers record one span per call, (name, start, end, parent span,
instance id), in memory, plus a few counters read off return values.
Nothing inside `gmmn` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer -> traced functions, as (module under `gmmn`, qualified name).
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (
        ("cli", "dispatch"),
        ("cli", "solve_to_file"),
        ("cli", "validate_solution"),
        ("cli", "serialize_solution"),
        ("cli", "parse_solution"),
    ),
    "instance_graph": (
        ("instance_graph", "build_intersection_graph"),
        ("instance_graph", "root_tree"),
        ("instance_graph", "find_cycle"),
        ("instance_graph", "nice_tree_decomposition"),
    ),
    "geometry": (
        ("geometry", "build_hanan_grid"),
        ("geometry", "densify"),
        ("geometry", "enumerate_m_paths"),
        ("geometry", "GridNetwork.validate"),
    ),
    "star_dag.sweep": (
        ("star_dag", "AuxDag.forward"),
        ("star_dag", "AuxDag.backward"),
        ("star_dag", "AuxDag.witness"),
    ),
    "star_dag.frames": (
        ("star_dag", "solve_star"),
        ("star_dag", "pick_center"),
        ("star_dag", "reflect_instance"),
        ("star_dag", "AuxDag.__init__"),
    ),
    "tree_dp": (
        ("tree_dp_fast", "solve_tree_fast"),
        ("tree_dp_fast", "prepare_tree_fast"),
        ("tree_dp_fast", "fast_node_table"),
        ("tree_dp_fast", "precompute_lambda_kappa"),
        ("tree_dp_fast", "classify_inout_case"),
        ("tree_dp_fast", "fill_case"),
        ("tree_dp", "compute_dp_cell"),
    ),
    "pseudotree": (
        ("pseudotree", "solve_pseudotree"),
        ("pseudotree", "build_reduction_plan"),
        ("pseudotree", "cut_degenerate_cycle"),
    ),
    "twdp": (
        ("twdp", "solve_twdp"),
        ("twdp", "candidate_mpaths"),
        ("twdp", "twdp_node"),
    ),
    "approx_coloring": (
        ("approx_coloring", "approx_solve"),
        ("approx_coloring", "greedy_color"),
    ),
}

FUNCTIONS = tuple(f"{mod}.{qual}" for targets in LAYERS.values() for mod, qual in targets)
LAYER_OF = {
    f"{mod}.{qual}": layer for layer, targets in LAYERS.items() for mod, qual in targets
}


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, start ns, end ns, parent span index or -1, instance
        # id, exception type or None); a slot is None while its call runs.
        self.spans: list = []
        self.instance = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for k, m in sorted(sys.modules.items())
            if (k == "gmmn" or k.startswith("gmmn.")) and m is not None
        ]
        hooks = self._hooks()
        for name in FUNCTIONS:
            mod_name, qual = name.split(".", 1)
            mod = sys.modules[f"gmmn.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(mod, qual)
            wrapper = self._wrap(name, original, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, hook):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.instance, error)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        from gmmn.tree_dp_fast import DIRECT

        counts = self.counts

        def dag_built(args, _result):
            dag = args[0]
            counts["dag_nodes"] += dag.node_count
            counts["dag_positions"] += dag.npos

        def node_table(_args, result):
            _table, tags = result
            counts["cells"] += len(tags)
            counts["direct_cells"] += sum(1 for tag in tags.values() if tag == DIRECT)

        def plan_built(_args, result):
            counts["triples"] += len(result.triples)

        def twdp_table(_args, result):
            counts["table_entries"] += len(result.entries)

        def approx_done(_args, result):
            _network, k, _ratio = result
            counts["approx_solves"] += 1
            counts["approx_k"] += k

        return {
            "star_dag.AuxDag.__init__": dag_built,
            "tree_dp_fast.fast_node_table": node_table,
            "pseudotree.build_reduction_plan": plan_built,
            "twdp.twdp_node": twdp_table,
            "approx_coloring.approx_solve": approx_done,
        }

    # ------------------------------------------------------------------
    # reading the spans

    def per_function(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, total ns), once the traced calls returned.

        A span's self time is its duration minus the durations of its
        direct children; calls nest strictly, so the children cover
        disjoint parts of it.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out = {name: [0, 0, 0] for name in self.names}
        for idx, span in enumerate(self.spans):
            row = out[self.names[span[0]]]
            duration = span[2] - span[1]
            row[0] += 1
            row[1] += duration - child_ns[idx]
            row[2] += duration
        return {name: tuple(row) for name, row in out.items()}

    def counters(self, solves: int) -> dict[str, float]:
        """Counters read off return values, exceptions and span nesting.

        Totals over the run, except the ratios `builds_per_solve`,
        `nodes_per_grid_vertex`, `direct_frac`, `fallback_frac` and `k`.
        """
        from gmmn.errors import CapExceeded, WidthCapExceeded

        names = self.names
        builds = derived = twdp_calls = fallbacks = 0
        wasted_ns = 0
        for span in self.spans:
            name = names[span[0]]
            parent = names[self.spans[span[3]][0]] if span[3] >= 0 else None
            if name == "instance_graph.build_intersection_graph":
                builds += 1
            elif name == "tree_dp_fast.solve_tree_fast" and parent == "pseudotree.solve_pseudotree":
                derived += 1
            elif name == "twdp.solve_twdp":
                twdp_calls += 1
                error = span[5]
                if (
                    parent == "cli.dispatch"
                    and error is not None
                    and issubclass(error, (CapExceeded, WidthCapExceeded))
                ):
                    fallbacks += 1
                    wasted_ns += span[2] - span[1]
        c = self.counts
        return {
            "instance_graph.builds_per_solve": _ratio(builds, solves),
            "star_dag.nodes_per_grid_vertex": _ratio(c["dag_nodes"], c["dag_positions"]),
            "tree_dp_fast.cells": c["cells"],
            "tree_dp_fast.direct_frac": _ratio(c["direct_cells"], c["cells"]),
            "pseudotree.triples": c["triples"],
            "pseudotree.derived_solves": derived,
            "twdp.table_entries": c["table_entries"],
            "twdp.fallback_frac": _ratio(fallbacks, twdp_calls),
            "twdp.wasted_s": wasted_ns / 1e9,
            "approx_coloring.k": _ratio(c["approx_k"], c["approx_solves"]),
        }

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start/end ns, parent, instance, error.

        Call only after the traced calls have returned.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, instance, error in self.spans:
                row = [self.names[name_id], start, end, parent, instance,
                       error.__name__ if error is not None else None]
                fh.write(json.dumps(row) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
