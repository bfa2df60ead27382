"""Exact dynamic programming over a nice tree decomposition.

A table entry fixes one candidate M-path per pair in the bag and stores the
minimum network length over all pairs seen in the subtree so far.  Candidate
paths per pair are monotone staircases on a coarse grid spanned by the
pair's own terminals plus the coordinates of its neighbors' overlap windows;
this set provably contains an optimal path while staying far smaller than
the full grid.  Exponential in (bag size x degree) by nature - a hard entry
cap aborts instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .errors import CandidateCapExceeded, Unreachable
from .geometry import (
    GridNetwork,
    HananGrid,
    MPath,
    Point,
    TerminalPair,
    count_m_paths,
    densify,
    edge_length,
    enumerate_m_paths,
    path_edges,
)
from .instance_graph import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    IntersectionGraph,
    build_intersection_graph,
    nice_tree_decomposition,
)

DEFAULT_ENTRY_CAP = 200_000

# An assignment maps each bag vertex to an index into its candidate list;
# stored as a tuple of (vertex, candidate index) sorted by vertex.
Assignment = tuple[tuple[int, int], ...]


@dataclass
class TwdpTable:
    """One decomposition node's table: bag assignment -> best length so far."""

    node_id: int
    entries: dict[Assignment, int]


def candidate_mpaths(
    pairs: list[TerminalPair],
    v: int,
    ig: Optional[IntersectionGraph] = None,
    cap: int = DEFAULT_ENTRY_CAP,
) -> list[MPath]:
    """Candidate M-paths for one pair, as dense paths on the full grid.

    Candidates are the staircases on the coarse grid whose coordinates come
    from the pair's own terminals plus every coordinate of each neighbor's
    overlap window.  Any path can be rerouted onto this grid without losing
    sharable overlap with any neighbor, so the set contains an optimal
    choice; an isolated pair gets exactly its two L-paths (one when
    degenerate).
    """
    if ig is None:
        ig = build_intersection_graph(pairs)
    k = ig.vertex(v)
    return _staircases(ig.pairs[k], _coarse_grid(ig, k), ig.grid, cap)


def _coarse_grid(ig: IntersectionGraph, k: int) -> HananGrid:
    """Vertex k's coarse grid: its terminals' coordinates plus every
    coordinate of each neighbor's overlap window."""
    grid = ig.grid
    pair = ig.pairs[k]
    xs = {pair.s.x, pair.t.x}
    ys = {pair.s.y, pair.t.y}
    for w in ig.adjacency[k]:
        window = pair.box.intersect(ig.pairs[w].box)
        assert window is not None
        sub = grid.subgrid(window)
        xs.update(grid.xs[j] for j in range(sub.j_lo, sub.j_hi + 1))
        ys.update(grid.ys[i] for i in range(sub.i_lo, sub.i_hi + 1))
    return HananGrid.from_coords(xs, ys)


def _staircases(
    pair: TerminalPair, coarse: HananGrid, grid: HananGrid, cap: int
) -> list[MPath]:
    """The pair's staircases on its coarse grid, densified on ``grid``."""
    count = count_m_paths(coarse, pair)
    if count > cap:
        raise CandidateCapExceeded(
            f"pair {pair.id} has {count} candidates, above the cap of {cap}"
        )
    out: dict[tuple[Point, ...], MPath] = {}
    for path in enumerate_m_paths(coarse, pair, cap=cap):
        dense = densify(grid, list(path.vertices))
        out.setdefault(dense, MPath(pair.id, dense))
    return [out[k] for k in sorted(out)]


def _union_length(edge_sets: list[frozenset]) -> int:
    union: set = set()
    for es in edge_sets:
        union |= es
    return sum(edge_length(e) for e in union)


def twdp_node(
    node,
    child_tables: list[TwdpTable],
    edges: Sequence[list[frozenset]],
    dists: Sequence[int],
) -> TwdpTable:
    """Fill one node's table from its children's; the rest index by vertex."""
    if node.kind == LEAF:
        return TwdpTable(node.id, {(): 0})
    if node.kind == INTRODUCE:
        (child,) = child_tables
        w = node.vertex
        length = {e: edge_length(e) for es in edges[w] for e in es}
        entries: dict[Assignment, int] = {}
        for key, val in child.entries.items():
            other: set = set()
            for pid, idx in key:
                other |= edges[pid][idx]
            for idx, es in enumerate(edges[w]):
                shared = sum(map(length.__getitem__, es & other))
                new_key = tuple(sorted(key + ((w, idx),)))
                entries[new_key] = val + dists[w] - shared
        return TwdpTable(node.id, entries)
    if node.kind == FORGET:
        (child,) = child_tables
        u = node.vertex
        entries = {}
        for key, val in child.entries.items():
            new_key = tuple(kv for kv in key if kv[0] != u)
            if new_key not in entries or val < entries[new_key]:
                entries[new_key] = val
        return TwdpTable(node.id, entries)
    if node.kind == JOIN:
        left, right = child_tables
        entries = {}
        for key, val in left.entries.items():
            other = right.entries.get(key)
            if other is None:
                continue
            bag_len = _union_length([edges[pid][idx] for pid, idx in key])
            entries[key] = val + other - bag_len
        return TwdpTable(node.id, entries)
    raise Unreachable(f"unknown node kind {node.kind}")


def solve_twdp(
    instance: list[TerminalPair],
    entry_cap: int = DEFAULT_ENTRY_CAP,
    ig: Optional[IntersectionGraph] = None,
) -> GridNetwork:
    """Exact solver parameterized by treewidth and degree of the graph.

    A table holds exactly the product of its bag's candidate counts, and a
    pair's count is a binomial on its coarse grid, so the entry cap is
    checked on every bag before any candidate is enumerated.
    """
    if ig is None:
        ig = build_intersection_graph(instance)
    pairs = ig.pairs
    grid = ig.grid
    decomposition = nice_tree_decomposition(ig)
    decomposition.validate(ig)

    coarse = [_coarse_grid(ig, k) for k in range(ig.n)]
    counts = [count_m_paths(c, p) for c, p in zip(coarse, pairs)]
    for node in decomposition.nodes:
        size = prod(counts[v] for v in node.bag)
        if size > entry_cap:
            raise CandidateCapExceeded(
                f"node {node.id} needs {size} entries, above the cap of {entry_cap}"
            )
    candidates = [_staircases(p, c, grid, entry_cap) for p, c in zip(pairs, coarse)]
    edges = [
        [frozenset(path_edges(m.vertices)) for m in cands] for cands in candidates
    ]
    dists = [p.distance for p in pairs]

    tables: dict[int, TwdpTable] = {}
    for node in decomposition.postorder():
        children = [tables[c] for c in node.children]
        tables[node.id] = twdp_node(node, children, edges, dists)
    root_table = tables[decomposition.root]
    assert list(root_table.entries) == [()], "root bag must be empty"
    best = root_table.entries[()]

    # Witness: replay the argmin choices top-down; each vertex's path is
    # decided at the unique forget node that drops it.
    chosen: dict[int, int] = {}
    nodes = decomposition.nodes
    stack: list[tuple[int, Assignment]] = [(decomposition.root, ())]
    while stack:
        node_id, key = stack.pop()
        node = nodes[node_id]
        if node.kind == INTRODUCE:
            child_key = tuple(kv for kv in key if kv[0] != node.vertex)
            stack.append((node.children[0], child_key))
        elif node.kind == FORGET:
            u = node.vertex
            child = tables[node.children[0]]
            want = tables[node_id].entries[key]
            for ckey, val in child.entries.items():
                if val == want and tuple(
                    kv for kv in ckey if kv[0] != u
                ) == key:
                    chosen[u] = dict(ckey)[u]
                    stack.append((node.children[0], ckey))
                    break
            else:
                raise Unreachable("no child entry reproduces the forget minimum")
        elif node.kind == JOIN:
            stack.extend((c, key) for c in node.children)
        elif node.kind != LEAF:
            raise Unreachable(f"unknown node kind {node.kind}")

    assert set(chosen) == set(range(len(pairs)))
    paths = [cands[chosen[v]] for v, cands in enumerate(candidates)]
    return GridNetwork.certified(pairs, paths, grid, best)
