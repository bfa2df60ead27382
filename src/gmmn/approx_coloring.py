"""Coloring-certified approximation for arbitrary instances.

Partition the pairs into independent sets of the intersection graph; within
one class no two boxes share a grid edge, so giving every pair its default
L-path is optimal for that class.  The resulting union is feasible for the
whole instance and its length is at most k times the optimum, where k is
the number of classes actually used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateFailed
from .geometry import (
    GridNetwork,
    MPath,
    TerminalPair,
    densify,
)
from .instance_graph import IntersectionGraph, build_intersection_graph
from .star_dag import default_l_path


@dataclass(frozen=True)
class Coloring:
    """A partition of the graph's vertices into independent sets."""

    k: int
    classes: tuple[frozenset[int], ...]

    def validate(self, ig: IntersectionGraph) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            for v in cls:
                if v in seen:
                    raise ValueError(f"vertex {v} colored twice")
                seen.add(v)
                for w in ig.adjacency[v]:
                    if w in cls:
                        raise ValueError(f"adjacent vertices {v},{w} share a color")
        if seen != set(range(ig.n)):
            raise ValueError("coloring does not cover every vertex")


def greedy_color(ig: IntersectionGraph) -> Coloring:
    """Saturation-degree greedy coloring; uses at most max-degree + 1 colors."""
    n = ig.n
    color: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    while uncolored:
        v = max(
            uncolored,
            key=lambda u: (len(neighbor_colors[u]), ig.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        uncolored.discard(v)
        for w in ig.adjacency[v]:
            neighbor_colors[w].add(c)
    k = max(color.values(), default=-1) + 1
    classes = tuple(
        frozenset(v for v, c in color.items() if c == i) for i in range(k)
    )
    out = Coloring(k, classes)
    out.validate(ig)
    if k > ig.max_degree + 1:
        raise CertificateFailed(f"{k} colors exceed max degree + 1")
    return out


def approx_solve(
    instance: list[TerminalPair], ig: IntersectionGraph | None = None
) -> tuple[GridNetwork, int, int]:
    """Feasible network plus its coloring certificate (k, ratio bound = k)."""
    if ig is None:
        ig = build_intersection_graph(instance)
    pairs = ig.pairs
    coloring = greedy_color(ig)
    grid = ig.grid
    paths = [
        MPath(pair.id, densify(grid, default_l_path(pair))) for pair in pairs
    ]
    network = GridNetwork.from_paths(pairs, paths)
    network.validate(grid)
    lo = max(p.distance for p in pairs)
    hi = sum(p.distance for p in pairs)
    if not lo <= network.total_length <= hi:
        raise CertificateFailed(
            f"length {network.total_length} outside [{lo}, {hi}]"
        )
    return network, coloring.k, coloring.k
