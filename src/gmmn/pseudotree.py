"""Exact solver for triangle-free pseudotree instances (including cycles).

The intersection graph has at most one cycle.  A degenerate pair on the
cycle can be split into two collinear pairs, which breaks the cycle without
changing the optimum.  Otherwise one cycle pair ``v`` is removed and its
M-path is constrained: every M-path of ``v`` passes through exactly one
"passage" (two consecutive grid edges around a vertex) drawn from a set of
O(n) candidates along two separating lines of the window.  Each passage
splits ``v`` into four sub-pairs whose intersection graph is provably a
forest, so each derived instance is solved by the accelerated tree solver
and the best result is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    ForestAssertionFailed,
    NoInteriorSplitPoint,
    NotAPseudotree,
    TriangleFound,
    WrongClass,
)
from .geometry import (
    DEGENERATE,
    FLIPPED,
    IDENTITY,
    Frame,
    GridNetwork,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    densify,
    reflect_y,
    rotate,
    transpose,
)
from .instance_graph import (
    ACYCLIC,
    CYCLE,
    GENERAL,
    TF_PSEUDOTREE,
    IntersectionGraph,
    build_intersection_graph,
    find_cycle,
)
from .tree_dp_fast import solve_tree_fast

HOR = "hor"
VERT = "vert"


@dataclass(frozen=True)
class PassageTriple:
    """One way for the removed pair's M-path to traverse a grid edge.

    The path arrives at ``q`` via the edge {q_minus, q} (or starts at
    ``q = q_minus``) and continues through {q, q_plus}; ``axis`` says
    whether the continuing edge is horizontal or vertical.
    """

    q_minus: Point
    q: Point
    q_plus: Point
    axis: str


@dataclass(frozen=True)
class ReductionPlan:
    """Everything needed to enumerate the derived tree instances.

    ``pairs`` is the instance in ``frame``, which normalizes the removed
    pair ``v`` (regular, with its window's separating line vertical).
    ``triples`` is empty when the input is already acyclic.
    """

    pairs: tuple[TerminalPair, ...]
    frame: Frame
    v: Optional[int]
    alpha: int
    beta: int
    x_hor: tuple[Point, ...]
    x_vert: tuple[Point, ...]
    triples: tuple[PassageTriple, ...]

    @cached_property
    def chain_ids(self) -> list[int]:
        """The four sub-pairs' ids: ``v``, then three past every pair id."""
        base = max(p.id for p in self.pairs) + 1
        return [self.v, base, base + 1, base + 2]

    @cached_property
    def _removed(self) -> TerminalPair:
        return next(p for p in self.pairs if p.id == self.v)

    def derived_instance(self, triple: PassageTriple) -> list[TerminalPair]:
        """The input with the cycle pair replaced by four chained sub-pairs."""
        pair = self._removed
        chain = [pair.s, triple.q_minus, triple.q, triple.q_plus, pair.t]
        subs = zip(self.chain_ids, chain, chain[1:])
        rest = [p for p in self.pairs if p is not pair]
        return rest + [TerminalPair.make(i, a, b) for i, a, b in subs]


def cut_degenerate_cycle(
    pairs: list[TerminalPair],
    cycle: list[int],
    ig: IntersectionGraph,
) -> Optional[tuple[list[TerminalPair], int, int]]:
    """Split a degenerate cycle pair so the intersection graph loses its cycle.

    ``cycle`` lists vertices of ``ig``, the graph of ``pairs``.  Returns (new
    instance, split pair id, added pair id) or None when the cycle has no
    degenerate pair.  The split point is the end of the first cycle
    neighbor's overlap, so the two halves meet only at a point, each half
    keeps exactly one of the neighbors, and no other neighbor spans the cut;
    total distance is preserved by collinearity.
    """
    for k, v in enumerate(cycle):
        pair = ig.pairs[v]
        if pair.orientation != DEGENERATE or pair.s == pair.t:
            continue
        u1, u2 = ig.pairs[cycle[k - 1]], ig.pairs[cycle[(k + 1) % len(cycle)]]
        o1 = pair.box.intersect(u1.box)
        o2 = pair.box.intersect(u2.box)
        assert o1 is not None and o2 is not None
        vertical = pair.s.x == pair.t.x
        lo1, hi1 = (o1.lo.y, o1.hi.y) if vertical else (o1.lo.x, o1.hi.x)
        lo2, hi2 = (o2.lo.y, o2.hi.y) if vertical else (o2.lo.x, o2.hi.x)
        if lo2 < lo1:
            lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
        if hi1 > lo2:
            raise NotAPseudotree("cycle neighbors overlap along the segment")
        cut = hi1
        seg_lo = min(pair.s.y, pair.t.y) if vertical else min(pair.s.x, pair.t.x)
        seg_hi = max(pair.s.y, pair.t.y) if vertical else max(pair.s.x, pair.t.x)
        if not seg_lo < cut < seg_hi:
            raise NoInteriorSplitPoint(
                f"no interior grid vertex on pair {pair.id} at {cut}"
            )
        q = Point(pair.s.x, cut) if vertical else Point(cut, pair.s.y)
        new_id = max(p.id for p in pairs) + 1
        out = [p for p in pairs if p.id != pair.id]
        out.append(TerminalPair.make(pair.id, pair.s, q))
        out.append(TerminalPair.make(new_id, q, pair.t))
        return out, pair.id, new_id
    return None


def _passages_hor(pt, i, j, b) -> list[PassageTriple]:
    if j == b:
        return []
    nxt = pt(i, j + 1)
    if i == 1 and j == 1:
        return [PassageTriple(pt(1, 1), pt(1, 1), nxt, HOR)]
    out = []
    if j > 1:
        out.append(PassageTriple(pt(i, j - 1), pt(i, j), nxt, HOR))
    if i > 1:
        out.append(PassageTriple(pt(i - 1, j), pt(i, j), nxt, HOR))
    return out


def _passages_vert(pt, i, j, a) -> list[PassageTriple]:
    if i == a:
        return []
    nxt = pt(i + 1, j)
    if i == 1 and j == 1:
        return [PassageTriple(pt(1, 1), pt(1, 1), nxt, VERT)]
    out = []
    if i > 1:
        out.append(PassageTriple(pt(i - 1, j), pt(i, j), nxt, VERT))
    if j > 1:
        out.append(PassageTriple(pt(i, j - 1), pt(i, j), nxt, VERT))
    return out


def build_reduction_plan(
    pairs: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> ReductionPlan:
    """Normalize one cycle pair and enumerate all of its passage triples."""
    if ig is None:
        ig = build_intersection_graph(pairs)
    pairs = ig.pairs
    if ig.class_tag in ACYCLIC:
        return ReductionPlan(pairs, IDENTITY, None, 0, 0, (), (), ())
    if ig.class_tag not in (CYCLE, TF_PSEUDOTREE):
        if (
            ig.class_tag == GENERAL
            and len(ig.components()) == 1
            and ig.edge_count == ig.n
            and len(find_cycle(ig.adjacency)) == 3
        ):
            raise TriangleFound("the unique cycle is a triangle")
        raise NotAPseudotree(f"class is {ig.class_tag}")

    # v, u1 and u2 are vertices: positions in ``pairs`` and in ``cur``.
    cycle = find_cycle(ig.adjacency)
    k = next(i for i, w in enumerate(cycle) if pairs[w].orientation != DEGENERATE)
    v, u1, u2 = cycle[k], cycle[k - 1], cycle[(k + 1) % len(cycle)]

    frame = IDENTITY
    cur = list(pairs)

    def step(f) -> None:
        nonlocal frame
        frame = Frame(frame.steps + (f,))
        cur[:] = frame.pairs(pairs)

    if pairs[v].orientation == FLIPPED:
        step(reflect_y)

    b1, b2 = cur[u1].box, cur[u2].box
    if not (b1.hi.x <= b2.lo.x or b2.hi.x <= b1.lo.x):
        if b1.hi.y <= b2.lo.y or b2.hi.y <= b1.lo.y:
            step(transpose)
            b1, b2 = cur[u1].box, cur[u2].box
        else:
            raise NotAPseudotree("cycle neighbors are not separable")
    if b2.hi.x <= b1.lo.x:
        u1, u2 = u2, u1

    def window():
        box = cur[v].box
        grid = build_hanan_grid(cur)
        w = grid.subgrid(box)
        xs = [grid.xs[j] for j in range(w.j_lo, w.j_hi + 1)]
        ys = [grid.ys[i] for i in range(w.i_lo, w.i_hi + 1)]
        o1 = box.intersect(cur[u1].box)
        o2 = box.intersect(cur[u2].box)
        assert o1 is not None and o2 is not None
        beta = grid.x_index[o1.hi.x] - w.j_lo + 1
        alpha = grid.y_index[min(o1.hi.y, o2.hi.y)] - w.i_lo + 1
        return xs, ys, alpha, beta

    xs, ys, alpha, beta = window()
    if alpha == len(ys) and beta == len(xs):
        step(rotate)
        u1, u2 = u2, u1
        xs, ys, alpha, beta = window()
        assert not (alpha == len(ys) and beta == len(xs))

    a, b = len(ys), len(xs)

    def pt(i: int, j: int) -> Point:
        return Point(xs[j - 1], ys[i - 1])

    x_hor = tuple(pt(i, beta) for i in range(1, alpha + 1))
    x_vert = tuple(pt(alpha, j) for j in range(1, beta + 1))
    triples: list[PassageTriple] = []
    for i in range(1, alpha + 1):
        triples.extend(_passages_hor(pt, i, beta, b))
    for j in range(1, beta + 1):
        triples.extend(_passages_vert(pt, alpha, j, a))
    return ReductionPlan(
        tuple(cur), frame, cur[v].id, alpha, beta, x_hor, x_vert, tuple(triples)
    )


def _assert_forest(derived: list[TerminalPair]) -> IntersectionGraph:
    """The derived instance's graph, which must be a forest."""
    ig = build_intersection_graph(derived)
    if ig.class_tag not in ACYCLIC:
        raise ForestAssertionFailed(f"derived instance classifies as {ig.class_tag}")
    return ig


def _merge_chain(network: GridNetwork, chain_ids: list[int]) -> MPath:
    """Concatenate the sub-pair paths back into one M-path of the first id."""
    by_id = {m.pair_id: m for m in network.paths}
    points: list[Point] = []
    for k in chain_ids:
        vs = by_id[k].vertices
        points.extend(vs if not points else vs[1:] if vs[0] == points[-1] else vs)
    return MPath(chain_ids[0], tuple(points))


def solve_pseudotree(
    instance: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> GridNetwork:
    """Exact solver when the intersection graph has at most one cycle
    (triangle-free); acyclic inputs pass straight to the tree solver."""
    if ig is None:
        ig = build_intersection_graph(instance)
    pairs = ig.pairs
    if ig.class_tag in ACYCLIC:
        return solve_tree_fast(pairs, ig)
    if ig.class_tag not in (CYCLE, TF_PSEUDOTREE):
        raise WrongClass(
            f"pseudotree solver cannot handle class {ig.class_tag}"
        )

    cycle = find_cycle(ig.adjacency)

    cut = cut_degenerate_cycle(pairs, cycle, ig)
    if cut is not None:
        # The two halves cover the split pair's path edge for edge.
        derived, split_id, new_id = cut
        best_net = solve_tree_fast(derived, _assert_forest(derived))
        chain_ids, frame = [split_id, new_id], IDENTITY
    else:
        plan = build_reduction_plan(pairs, ig)
        assert plan.triples, "nondegenerate cycle must yield passage triples"
        derived = [plan.derived_instance(triple) for triple in plan.triples]
        nets = (solve_tree_fast(d, _assert_forest(d)) for d in derived)
        best_net = min(nets, key=lambda net: net.total_length)
        chain_ids, frame = plan.chain_ids, plan.frame

    paths = [m for m in best_net.paths if m.pair_id not in chain_ids]
    paths.append(_merge_chain(best_net, chain_ids))
    final = [
        MPath(m.pair_id, densify(ig.grid, frame.path_back(pair.s, m.vertices)))
        for pair, m in zip(pairs, sorted(paths, key=lambda m: m.pair_id))
    ]
    return GridNetwork.certified(pairs, final, ig.grid, best_net.total_length)
