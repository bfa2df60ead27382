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
from typing import Optional

from .errors import CandidateCapExceeded, Unreachable
from .geometry import (
    GridNetwork,
    HananGrid,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
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
    NiceTreeDecomposition,
    build_intersection_graph,
    nice_tree_decomposition,
)

DEFAULT_ENTRY_CAP = 200_000

# An assignment maps each bag pair to an index into its candidate list;
# stored as a tuple of (pair id, candidate index) sorted by pair id.
Assignment = tuple[tuple[int, int], ...]


@dataclass
class TwdpTable:
    """One decomposition node's table: bag assignment -> best length so far."""

    node_id: int
    entries: dict[Assignment, int]


def candidate_mpaths(
    pairs: list[TerminalPair],
    v: int,
    grid: Optional[HananGrid] = None,
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
    by_id = {p.id: p for p in pairs}
    pair = by_id[v]
    if grid is None:
        grid = build_hanan_grid(pairs)
    if ig is None:
        ig = build_intersection_graph(pairs)
    ordered = sorted(by_id)
    xs = {pair.s.x, pair.t.x}
    ys = {pair.s.y, pair.t.y}
    for w in ig.adjacency[ordered.index(v)]:
        window = pair.box.intersect(by_id[ordered[w]].box)
        assert window is not None
        sub = grid.subgrid(window)
        xs.update(grid.xs[j] for j in range(sub.j_lo, sub.j_hi + 1))
        ys.update(grid.ys[i] for i in range(sub.i_lo, sub.i_hi + 1))
    xs_sorted = tuple(sorted(xs))
    ys_sorted = tuple(sorted(ys))
    coarse = HananGrid(
        xs=xs_sorted,
        ys=ys_sorted,
        x_index={x: j for j, x in enumerate(xs_sorted)},
        y_index={y: i for i, y in enumerate(ys_sorted)},
    )
    out: dict[tuple[Point, ...], MPath] = {}
    for path in enumerate_m_paths(coarse, pair, cap=cap):
        dense = densify(grid, list(path.vertices))
        out.setdefault(dense, MPath(pair.id, dense))
    if len(out) > cap:
        raise CandidateCapExceeded(
            f"pair {v} has {len(out)} candidates, above the cap of {cap}"
        )
    return [out[k] for k in sorted(out)]


def _union_length(edge_sets: list[frozenset]) -> int:
    union: set = set()
    for es in edge_sets:
        union |= es
    return sum(edge_length(e) for e in union)


def twdp_node(
    node,
    child_tables: list[TwdpTable],
    candidates: dict[int, list[MPath]],
    edges: dict[int, list[frozenset]],
    dists: dict[int, int],
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> TwdpTable:
    """Fill one decomposition node's table from its children's tables."""
    if node.kind == LEAF:
        return TwdpTable(node.id, {(): 0})
    if node.kind == INTRODUCE:
        (child,) = child_tables
        w = node.vertex
        entries: dict[Assignment, int] = {}
        for key, val in child.entries.items():
            other: set = set()
            for pid, idx in key:
                other |= edges[pid][idx]
            for idx, es in enumerate(edges[w]):
                shared = sum(edge_length(e) for e in es & other)
                new_key = tuple(sorted(key + ((w, idx),)))
                entries[new_key] = val + dists[w] - shared
                if len(entries) > entry_cap:
                    raise CandidateCapExceeded(
                        f"node {node.id} exceeds {entry_cap} table entries"
                    )
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
    decomposition: Optional[NiceTreeDecomposition] = None,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> GridNetwork:
    """Exact solver parameterized by treewidth and degree of the graph."""
    pairs = sorted(instance, key=lambda p: p.id)
    grid = build_hanan_grid(pairs)
    ig = build_intersection_graph(pairs)
    if decomposition is None:
        decomposition = nice_tree_decomposition(ig)
    decomposition.validate(ig)

    candidates = {
        p.id: candidate_mpaths(pairs, p.id, grid, ig, entry_cap) for p in pairs
    }
    edges = {
        pid: [frozenset(path_edges(m.vertices)) for m in cands]
        for pid, cands in candidates.items()
    }
    dists = {p.id: p.distance for p in pairs}

    tables: dict[int, TwdpTable] = {}
    for node in decomposition.postorder():
        children = [tables[c] for c in node.children]
        tables[node.id] = twdp_node(
            node, children, candidates, edges, dists, entry_cap
        )
    root_table = tables[decomposition.root]
    assert list(root_table.entries) == [()], "root bag must be empty"
    best = root_table.entries[()]

    # Witness: replay the argmin choices top-down; each pair's path is
    # decided at the unique forget node that drops it.
    chosen: dict[int, int] = {}
    nodes = decomposition.nodes

    def walk(node_id: int, key: Assignment) -> None:
        node = nodes[node_id]
        if node.kind == LEAF:
            return
        if node.kind == INTRODUCE:
            child_key = tuple(kv for kv in key if kv[0] != node.vertex)
            walk(node.children[0], child_key)
            return
        if node.kind == FORGET:
            u = node.vertex
            child = tables[node.children[0]]
            want = tables[node_id].entries[key]
            for ckey, val in child.entries.items():
                if val == want and tuple(
                    kv for kv in ckey if kv[0] != u
                ) == key:
                    chosen[u] = dict(ckey)[u]
                    walk(node.children[0], ckey)
                    return
            raise Unreachable("no child entry reproduces the forget minimum")
        if node.kind == JOIN:
            walk(node.children[0], key)
            walk(node.children[1], key)
            return
        raise Unreachable(f"unknown node kind {node.kind}")

    walk(decomposition.root, ())
    assert set(chosen) == {p.id for p in pairs}
    paths = [candidates[p.id][chosen[p.id]] for p in pairs]
    return GridNetwork.certified(pairs, paths, grid, best)
