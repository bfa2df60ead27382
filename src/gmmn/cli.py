"""Command-line front end: file formats, generators, dispatch, SVG, bench.

Instances and solutions are stored as line-delimited text with a fixed
field order so that serializing and re-parsing is bit-exact.  The `gmmn`
entry point exposes four subcommands:

    generate   build a random instance of a requested intersection-graph class
    solve      run a solver (or auto-dispatch) and emit a solution file
    render     draw a solution as a deterministic SVG
    bench      measure solver wall times and log-log scaling slopes

Exit codes: 0 success, 1 any other error (I/O, parsing, OverflowRisk or another
solver error), 2 unsupported instance class, 3 a size or width cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .approx_coloring import approx_solve
from .errors import CapExceeded, GenerationFailed, GmmnError, WrongClass
from .geometry import (
    GridNetwork,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
)
from .instance_graph import (
    CYCLE,
    EDGELESS,
    FOREST,
    GENERAL,
    STAR,
    TF_PSEUDOTREE,
    TREE,
    IntersectionGraph,
    build_intersection_graph,
)
from .oracle import solve_bruteforce
from .pseudotree import solve_pseudotree
from .star_dag import solve_star
from .tree_dp import solve_tree
from .tree_dp_fast import solve_tree_fast
from .twdp import solve_twdp

CAP_ENV_VAR = "GMMN_CAP"

INSTANCE_HEADER = "gmmn-instance 1"
SOLUTION_HEADER = "gmmn-solution 1"
BENCH_HEADER = "gmmn-bench 1"


class FormatError(ValueError):
    """A file does not conform to the line-delimited schema."""


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceFile:
    """An instance plus optional metadata (display name, intended class)."""

    pairs: tuple[TerminalPair, ...]
    name: Optional[str] = None
    intended_class: Optional[str] = None


@dataclass(frozen=True)
class SolutionFile:
    """A solved instance: per-pair paths, union edges, and provenance."""

    solver: str
    total_length: int
    ratio: int
    wall_ms: int
    paths: tuple[MPath, ...]
    edges: tuple[tuple[Point, Point], ...]


def serialize_instance(inst: InstanceFile) -> str:
    lines = [INSTANCE_HEADER]
    if inst.name is not None:
        lines.append(f"name {inst.name}")
    if inst.intended_class is not None:
        lines.append(f"class {inst.intended_class}")
    for p in inst.pairs:
        lines.append(f"pair {p.s.x} {p.s.y} {p.t.x} {p.t.y}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceFile:
    lines = text.splitlines()
    if not lines or lines[0] != INSTANCE_HEADER:
        raise FormatError("missing instance header")
    name: Optional[str] = None
    intended: Optional[str] = None
    pairs: list[TerminalPair] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "name" and name is None and not pairs:
            name = rest
        elif key == "class" and intended is None and not pairs:
            intended = rest
        elif key == "pair":
            try:
                sx, sy, tx, ty = (int(tok) for tok in rest.split())
            except ValueError as exc:
                raise FormatError(f"bad pair line: {line!r}") from exc
            pairs.append(
                TerminalPair.make(len(pairs), Point(sx, sy), Point(tx, ty))
            )
        else:
            raise FormatError(f"unexpected line: {line!r}")
    if not pairs:
        raise FormatError("an instance needs at least one pair")
    return InstanceFile(tuple(pairs), name, intended)


def solution_from_network(
    network: GridNetwork, solver: str, ratio: int, wall_ms: int
) -> SolutionFile:
    paths = tuple(sorted(network.paths, key=lambda m: m.pair_id))
    edges = tuple(sorted(network.union_edges))
    return SolutionFile(
        solver, network.total_length, ratio, wall_ms, paths, edges
    )


def serialize_solution(sol: SolutionFile) -> str:
    lines = [
        SOLUTION_HEADER,
        f"solver {sol.solver}",
        f"total_length {sol.total_length}",
        f"ratio {sol.ratio}",
        f"wall_ms {sol.wall_ms}",
    ]
    for mp in sol.paths:
        coords = " ".join(f"{v.x} {v.y}" for v in mp.vertices)
        lines.append(f"path {mp.pair_id} {coords}")
    for a, b in sol.edges:
        lines.append(f"edge {a.x} {a.y} {b.x} {b.y}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> SolutionFile:
    lines = text.splitlines()
    if not lines or lines[0] != SOLUTION_HEADER:
        raise FormatError("missing solution header")
    fields: dict[str, object] = {}
    paths: list[MPath] = []
    edges: list[tuple[Point, Point]] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key in ("solver", "total_length", "ratio", "wall_ms"):
            if key in fields:
                raise FormatError(f"duplicate field {key}")
            fields[key] = rest if key == "solver" else _int(line, rest)
        elif key == "path":
            toks = [_int(line, tok) for tok in rest.split()]
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise FormatError(f"bad path line: {line!r}")
            vs = tuple(
                Point(toks[k], toks[k + 1]) for k in range(1, len(toks), 2)
            )
            paths.append(MPath(toks[0], vs))
        elif key == "edge":
            toks = [_int(line, tok) for tok in rest.split()]
            if len(toks) != 4:
                raise FormatError(f"bad edge line: {line!r}")
            edges.append((Point(toks[0], toks[1]), Point(toks[2], toks[3])))
        else:
            raise FormatError(f"unexpected line: {line!r}")
    try:
        return SolutionFile(
            fields["solver"],
            fields["total_length"],
            fields["ratio"],
            fields["wall_ms"],
            tuple(paths),
            tuple(edges),
        )
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]}") from exc


def _int(line: str, token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise FormatError(f"bad integer in line: {line!r}") from exc


def instance_from_solution(sol: SolutionFile) -> InstanceFile:
    """Recover the instance: each path runs from its pair's s to its t."""
    pairs = [
        TerminalPair.make(mp.pair_id, mp.vertices[0], mp.vertices[-1])
        for mp in sol.paths
    ]
    return InstanceFile(tuple(pairs))


def validate_solution(sol: SolutionFile) -> None:
    """Re-derive the union from the paths and check the stored bookkeeping."""
    inst = instance_from_solution(sol)
    grid = build_hanan_grid(list(inst.pairs))
    network = GridNetwork.from_paths(list(inst.pairs), list(sol.paths))
    if sorted(network.union_edges) != list(sol.edges):
        raise FormatError("stored edges differ from the recomputed union")
    if network.total_length != sol.total_length:
        raise FormatError("stored total_length differs from the union length")
    network.validate(grid)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

GENERATOR_CLASSES = ("star", "tree", "cycle", "pseudotree", "general")
_RETRY_BUDGET = 200
_REJECTION_TRIES = 150

_EXPECTED_TAGS = {
    "star": {STAR},
    "tree": {TREE},
    "cycle": {CYCLE},
    "pseudotree": {TF_PSEUDOTREE},
    "general": {GENERAL},
}


def _random_boxes(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    out = []
    for _ in range(n):
        a = Point(rng.randint(0, r), rng.randint(0, r))
        b = Point(rng.randint(0, r), rng.randint(0, r))
        if a == b:
            b = Point(min(a.x + 1, r), a.y) if a.x < r else Point(a.x - 1, a.y)
        out.append((a, b))
    return out


def _diagonal(rng: random.Random, lo: Point, hi: Point) -> tuple[Point, Point]:
    """Terminals spanning the box, on a randomly chosen diagonal."""
    if rng.random() < 0.5 or lo.x == hi.x or lo.y == hi.y:
        return lo, hi
    return Point(lo.x, hi.y), Point(hi.x, lo.y)


def _spread(rng: random.Random, count: int, gap: int, lo: int, hi: int) -> list[int]:
    """`count` increasing integers in [lo, hi] with consecutive gaps >= gap."""
    slack = (hi - lo) - gap * (count - 1)
    if slack < 0:
        raise GenerationFailed(
            f"cannot fit {count} slots with gap {gap} in [{lo}, {hi}]"
        )
    offsets = sorted(rng.randint(0, slack) for _ in range(count))
    return [lo + gap * i + offsets[i] for i in range(count)]


def _gen_star(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    if n == 1:
        return _random_boxes(rng, 1, r)
    if r < 2 * (n - 1) + 1:
        raise GenerationFailed("coordinate range too small for this star")
    w = r
    boxes = [_diagonal(rng, Point(0, 0), Point(w, w))]
    # Satellites occupy pairwise x-disjoint unit-wide cells strictly inside
    # the hub box, so each touches the hub and nothing else.
    xs = _spread(rng, n - 1, 2, 1, w - 2)
    for x in xs:
        y = rng.randint(1, w - 2)
        if rng.random() < 0.2:
            boxes.append((Point(x, y), Point(x + 1, y)))
        else:
            boxes.append(_diagonal(rng, Point(x, y), Point(x + 1, y + 1)))
    return boxes


def _gen_tree(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    # Caterpillar layout: a horizontal spine of edge-touching boxes with
    # vertical pendant chains hanging below at interior slots.
    spine = rng.randint(max(2, n - n // 2), n)
    depths = [0] * spine
    for _ in range(n - spine):
        depths[rng.randrange(spine)] += 1
    base = 2 * max(depths)
    if 2 * spine > r or base + 1 > r:
        raise GenerationFailed("coordinate range too small for this tree")
    boxes = []
    for i in range(spine):
        boxes.append(
            _diagonal(rng, Point(2 * i, base), Point(2 * i + 2, base + 1))
        )
    for i, depth in enumerate(depths):
        for j in range(depth):
            lo = Point(2 * i, base - 2 * (j + 1))
            hi = Point(2 * i + 1, base - 2 * j)
            boxes.append(_diagonal(rng, lo, hi))
    return boxes


def _gen_cycle(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    if n < 4:
        raise GenerationFailed("a triangle-free cycle needs at least 4 pairs")
    # Distribute the pairs over the four sides of a square ring.
    counts = [1, 1, 1, 1]
    for _ in range(n - 4):
        counts[rng.randrange(4)] += 1
    side = max(4, 2 * max(counts) + 1)
    if side > r:
        raise GenerationFailed("coordinate range too small for this cycle")
    side = min(r, side + rng.randint(0, max(0, r - side)))
    boxes: list[tuple[Point, Point]] = []
    for s, k in enumerate(counts):
        # Chain cut points 0 = c_0 < ... < c_k = side - 1 with gaps >= 2:
        # consecutive boxes overlap in a length-1 strip, others are disjoint.
        cuts = [0] + _spread(rng, k - 1, 2, 2, side - 3) + [side - 1]
        for j in range(k):
            u_lo, u_hi = cuts[j], cuts[j + 1] + 1
            degenerate = k > 1 and 0 < j < k - 1 and rng.random() < 0.15
            if s == 0:  # bottom, left to right
                lo, hi = Point(u_lo, 0), Point(u_hi, 1)
            elif s == 1:  # right, bottom to top
                lo, hi = Point(side - 1, u_lo), Point(side, u_hi)
            elif s == 2:  # top, right to left
                lo = Point(side - 1 - cuts[j + 1], side - 1)
                hi = Point(side - cuts[j], side)
            else:  # left, top to bottom
                lo = Point(0, side - 1 - cuts[j + 1])
                hi = Point(1, side - cuts[j])
            if degenerate:
                if s in (0, 2):
                    y = rng.choice((lo.y, hi.y))
                    lo, hi = Point(lo.x, y), Point(hi.x, y)
                else:
                    x = rng.choice((lo.x, hi.x))
                    lo, hi = Point(x, lo.y), Point(x, hi.y)
                boxes.append((lo, hi))
            else:
                boxes.append(_diagonal(rng, lo, hi))
    return boxes


def _gen_pseudotree(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    if n < 5:
        raise GenerationFailed("a pseudotree needs at least 5 pairs")
    # A 4-cycle ring with vertical pendant chains below the bottom box.
    extra = n - 4
    slots = rng.randint(1, extra)
    depths = [1] * slots
    for _ in range(extra - slots):
        depths[rng.randrange(slots)] += 1
    margin = 2 * max(depths)
    side = max(5, 2 * slots + 3)
    if margin + side > r:
        raise GenerationFailed("coordinate range too small for this pseudotree")
    m, top = margin, margin + side
    ring = [
        (Point(m, m), Point(top, m + 1)),  # bottom
        (Point(top - 1, m), Point(top, top)),  # right
        (Point(m, top - 1), Point(top, top)),  # top
        (Point(m, m), Point(m + 1, top)),  # left
    ]
    boxes = []
    for i, (lo, hi) in enumerate(ring):
        if i == 0 and rng.random() < 0.2:
            boxes.append((Point(lo.x, m), Point(hi.x, m)))
        else:
            boxes.append(_diagonal(rng, lo, hi))
    # Pendant slots are x-disjoint and avoid the ring's corner columns.
    xs = _spread(rng, slots, 2, m + 2, top - 3)
    for x, depth in zip(xs, depths):
        for j in range(depth):
            lo = Point(x, m - 2 * (j + 1))
            hi = Point(x + 1, m - 2 * j)
            boxes.append(_diagonal(rng, lo, hi))
    return boxes


def _gen_general(rng: random.Random, n: int, r: int) -> list[tuple[Point, Point]]:
    if n < 3 or r < 2:
        raise GenerationFailed("a general instance needs >= 3 pairs")
    # Three boxes around a common unit square form a triangle; the rest are
    # free-floating random boxes.
    px = rng.randint(1, r - 2)
    py = rng.randint(1, r - 2)
    boxes = []
    for _ in range(3):
        lo = Point(max(0, px - rng.randint(0, 2)), max(0, py - rng.randint(0, 2)))
        hi = Point(
            min(r, px + 1 + rng.randint(0, 2)),
            min(r, py + 1 + rng.randint(0, 2)),
        )
        boxes.append(_diagonal(rng, lo, hi))
    boxes.extend(_random_boxes(rng, n - 3, r))
    return boxes


_GENERATORS: dict[str, Callable] = {
    "star": _gen_star,
    "tree": _gen_tree,
    "cycle": _gen_cycle,
    "pseudotree": _gen_pseudotree,
    "general": _gen_general,
}


def _expected_tags(class_name: str, n: int) -> set[str]:
    if n == 1:
        return {EDGELESS}
    if class_name in ("star", "tree") and n <= 3:
        return {STAR}
    return _EXPECTED_TAGS[class_name]


def generate(
    class_name: str, n: int, coord_range: int, seed: int
) -> InstanceFile:
    """A random instance whose intersection graph has the requested class."""
    if class_name not in _GENERATORS:
        raise GenerationFailed(f"unknown class {class_name!r}")
    if n < 1:
        raise GenerationFailed("n must be at least 1")
    # String seeds hash deterministically across processes (unlike tuples).
    rng = random.Random(f"{class_name}:{n}:{coord_range}:{seed}")
    expected = _expected_tags(class_name, n)
    last_error: Optional[str] = None
    for attempt in range(_RETRY_BUDGET):
        # Small instances first try unconstrained rejection sampling for
        # geometric variety; the constructive layout is the fallback.
        if n <= 5 and attempt < _REJECTION_TRIES:
            boxes = _random_boxes(rng, n, coord_range)
        else:
            try:
                boxes = _GENERATORS[class_name](rng, n, coord_range)
            except GenerationFailed as exc:
                last_error = str(exc)
                if n <= 5 and attempt < _RETRY_BUDGET - 1:
                    continue
                raise
        pairs = [
            TerminalPair.make(i, a, b) for i, (a, b) in enumerate(boxes)
        ]
        tag = build_intersection_graph(pairs).class_tag
        if tag in expected:
            return InstanceFile(
                tuple(pairs),
                name=f"{class_name}-n{n}-s{seed}",
                intended_class=class_name,
            )
        last_error = f"got class {tag}"
    raise GenerationFailed(
        f"no {class_name} instance with n={n} after {_RETRY_BUDGET} tries"
        f" ({last_error})"
    )


# ---------------------------------------------------------------------------
# Solver dispatch
# ---------------------------------------------------------------------------


def _run_oracle(ig: IntersectionGraph, cap: Optional[int]) -> GridNetwork:
    if cap is None:
        return solve_bruteforce(ig.pairs)
    return solve_bruteforce(ig.pairs, product_cap=cap)


def _run_twdp(ig: IntersectionGraph, cap: Optional[int]) -> GridNetwork:
    if cap is None:
        return solve_twdp(ig.pairs, ig=ig)
    return solve_twdp(ig.pairs, entry_cap=cap, ig=ig)


SOLVERS: dict[str, Callable[[IntersectionGraph, Optional[int]], GridNetwork]] = {
    "star": lambda ig, cap: solve_star(ig.pairs, ig=ig),
    "tree": lambda ig, cap: solve_tree(ig.pairs, ig),
    "tree-fast": lambda ig, cap: solve_tree_fast(ig.pairs, ig),
    "pseudotree": lambda ig, cap: solve_pseudotree(ig.pairs, ig),
    "twdp": _run_twdp,
    "oracle": _run_oracle,
}

# The cheapest exact solver each intersection-graph class admits.
AUTO_SOLVER = {
    EDGELESS: "star",
    STAR: "star",
    TREE: "tree-fast",
    FOREST: "tree-fast",
    CYCLE: "pseudotree",
    TF_PSEUDOTREE: "pseudotree",
    GENERAL: "twdp",
}

ALGORITHMS = ("auto",) + tuple(SOLVERS) + ("approx",)


def dispatch(
    pairs: list[TerminalPair],
    algorithm: str = "auto",
    cap: Optional[int] = None,
) -> tuple[str, GridNetwork, int, Optional[str]]:
    """Solve with the named algorithm; returns (name, network, ratio, warning).

    The intersection graph is built once here and handed to the solver.
    `auto` picks the cheapest exact solver the instance's class admits and
    falls back to the coloring approximation (with a warning) when that
    solver blows a cap.
    """
    ig = build_intersection_graph(pairs)
    if algorithm == "approx":
        network, k, ratio = approx_solve(pairs, ig)
        return "approx", network, ratio, None
    name = AUTO_SOLVER[ig.class_tag] if algorithm == "auto" else algorithm
    try:
        return name, SOLVERS[name](ig, cap), 1, None
    except CapExceeded as exc:
        if algorithm != "auto":
            raise
        network, k, ratio = approx_solve(pairs, ig)
        warning = (
            f"exact solve unavailable ({exc}); falling back to the"
            f" {k}-coloring approximation (length <= {ratio} x optimum)"
        )
        return "approx", network, ratio, warning


def solve_to_file(
    inst: InstanceFile, algorithm: str = "auto", cap: Optional[int] = None
) -> tuple[SolutionFile, Optional[str]]:
    pairs = list(inst.pairs)
    start = time.perf_counter()
    name, network, ratio, warning = dispatch(pairs, algorithm, cap)
    wall_ms = int((time.perf_counter() - start) * 1000)
    return solution_from_network(network, name, ratio, wall_ms), warning


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def render_svg(sol: SolutionFile, inst: Optional[InstanceFile] = None) -> str:
    """Deterministic drawing: dashed grid, solid union, labeled terminals."""
    if inst is None:
        inst = instance_from_solution(sol)
    pairs = list(inst.pairs)
    grid = build_hanan_grid(pairs)
    scale, margin = 24, 30
    x_lo, x_hi = grid.xs[0], grid.xs[-1]
    y_lo, y_hi = grid.ys[0], grid.ys[-1]

    def sx(x: int) -> int:
        return margin + scale * (x - x_lo)

    def sy(y: int) -> int:
        return margin + scale * (y_hi - y)

    width = sx(x_hi) + margin
    height = sy(y_lo) + margin
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3">',
    ]
    for x in grid.xs:
        out.append(
            f'<line x1="{sx(x)}" y1="{sy(y_hi)}" x2="{sx(x)}" y2="{sy(y_lo)}"/>'
        )
    for y in grid.ys:
        out.append(
            f'<line x1="{sx(x_lo)}" y1="{sy(y)}" x2="{sx(x_hi)}" y2="{sy(y)}"/>'
        )
    out.append("</g>")
    out.append('<g stroke="#1040c0" stroke-width="3" stroke-linecap="round">')
    for a, b in sorted(sol.edges):
        out.append(
            f'<line x1="{sx(a.x)}" y1="{sy(a.y)}" x2="{sx(b.x)}" y2="{sy(b.y)}"/>'
        )
    out.append("</g>")
    out.append('<g font-family="monospace" font-size="11">')
    for pair in pairs:
        for label, p in ((f"s{pair.id}", pair.s), (f"t{pair.id}", pair.t)):
            out.append(
                f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="4" fill="#c02020"/>'
            )
            out.append(
                f'<text x="{sx(p.x) + 5}" y="{sy(p.y) - 5}">{label}</text>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    """Raw wall-time samples plus per-(solver, class, n) medians and slopes."""

    measurements: list[tuple[str, str, int, int, float]] = field(
        default_factory=list
    )
    medians: list[tuple[str, str, int, float]] = field(default_factory=list)
    slopes: list[tuple[str, str, float]] = field(default_factory=list)


def bench(
    classes: list[str],
    sizes: list[int],
    seeds: list[int],
    solvers: list[str],
    coord_scale: int = 4,
    cap: Optional[int] = None,
) -> BenchReport:
    """Median wall times and log-log slope per (solver, class) combination."""
    report = BenchReport()
    for cls in classes:
        for n in sizes:
            instances = [
                generate(cls, n, coord_scale * max(n, 2), seed)
                for seed in seeds
            ]
            for solver in solvers:
                for seed, inst in zip(seeds, instances):
                    pairs = list(inst.pairs)
                    start = time.perf_counter()
                    dispatch(pairs, solver, cap)
                    ms = (time.perf_counter() - start) * 1000
                    report.measurements.append((solver, cls, n, seed, ms))
    groups: dict[tuple[str, str, int], list[float]] = {}
    for solver, cls, n, _seed, ms in report.measurements:
        groups.setdefault((solver, cls, n), []).append(ms)
    for (solver, cls, n), samples in sorted(groups.items()):
        report.medians.append((solver, cls, n, statistics.median(samples)))
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for solver, cls, n, med in report.medians:
        series.setdefault((solver, cls), []).append((n, med))
    for (solver, cls), points in sorted(series.items()):
        if len(points) >= 2:
            report.slopes.append((solver, cls, loglog_slope(points)))
    return report


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-6)) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def serialize_bench(report: BenchReport) -> str:
    lines = [BENCH_HEADER]
    for solver, cls, n, seed, ms in report.measurements:
        lines.append(f"measure {solver} {cls} {n} {seed} {ms!r}")
    for solver, cls, n, med in report.medians:
        lines.append(f"median {solver} {cls} {n} {med!r}")
    for solver, cls, slope in report.slopes:
        lines.append(f"slope {solver} {cls} {slope!r}")
    return "\n".join(lines) + "\n"


def parse_bench(text: str) -> BenchReport:
    lines = text.splitlines()
    if not lines or lines[0] != BENCH_HEADER:
        raise FormatError("missing bench header")
    report = BenchReport()
    for line in lines[1:]:
        toks = line.split()
        kind = toks[0] if toks else None
        if {"measure": 6, "median": 5, "slope": 4}.get(kind) != len(toks):
            raise FormatError(f"unexpected line: {line!r}")
        try:
            if kind == "measure":
                report.measurements.append(
                    (toks[1], toks[2], int(toks[3]), int(toks[4]), float(toks[5]))
                )
            elif kind == "median":
                report.medians.append(
                    (toks[1], toks[2], int(toks[3]), float(toks[4]))
                )
            else:
                report.slopes.append((toks[1], toks[2], float(toks[3])))
        except ValueError as exc:
            raise FormatError(f"bad number in line: {line!r}") from exc
    return report


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _default_cap() -> Optional[int]:
    raw = os.environ.get(CAP_ENV_VAR)
    return int(raw) if raw else None


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = generate(args.cls, args.n, args.coord_range, args.seed)
    _write_output(args.output, serialize_instance(inst))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_input(args.input))
    cap = args.cap if args.cap is not None else _default_cap()
    sol, warning = solve_to_file(inst, args.algorithm, cap)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    _write_output(args.output, serialize_solution(sol))
    if args.svg:
        _write_output(args.svg, render_svg(sol, inst))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    sol = parse_solution(_read_input(args.input))
    validate_solution(sol)
    _write_output(args.svg or args.output, render_svg(sol))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    classes = args.cls.split(",")
    sizes = [int(tok) for tok in args.n.split(",")]
    seeds = [args.seed + k for k in range(args.repeats)]
    solvers = args.algorithm.split(",")
    cap = args.cap if args.cap is not None else _default_cap()
    report = bench(classes, sizes, seeds, solvers, cap=cap)
    _write_output(args.output, serialize_bench(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmn",
        description=(
            "Exact and approximate solvers for the generalized minimum"
            " Manhattan network problem."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--class", dest="cls", choices=GENERATOR_CLASSES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--coord-range", type=int, default=64)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    solve.add_argument("--output", default=None)
    solve.add_argument("--svg", default=None)
    solve.add_argument("--cap", type=int, default=None)
    solve.set_defaults(func=_cmd_solve)

    render = sub.add_parser("render", help="render a solution file as SVG")
    render.add_argument("--input", required=True)
    render.add_argument("--svg", default=None)
    render.add_argument("--output", default=None)
    render.set_defaults(func=_cmd_render)

    bench_p = sub.add_parser("bench", help="measure solver scaling")
    bench_p.add_argument("--class", dest="cls", default="star")
    bench_p.add_argument("--n", default="50,100,200")
    bench_p.add_argument("--algorithm", default="auto")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--repeats", type=int, default=3)
    bench_p.add_argument("--cap", type=int, default=None)
    bench_p.add_argument("--output", default=None)
    bench_p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WrongClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, GmmnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
