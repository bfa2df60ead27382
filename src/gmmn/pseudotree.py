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
from typing import Callable, Optional

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
    GridNetwork,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    densify,
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
    find_cycle,
)
from .tree_dp_fast import solve_tree_fast

HOR = "hor"
VERT = "vert"

# Involutive coordinate maps used to normalize the chosen cycle pair.
_TRANSFORMS: dict[str, Callable[[Point], Point]] = {
    "reflect_y": lambda p: Point(p.x, -p.y),
    "transpose": lambda p: Point(p.y, p.x),
    "rotate": lambda p: Point(-p.x, -p.y),
}


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

    ``pairs`` is the instance after normalization (the removed pair regular
    with its window's separating line vertical); ``steps`` lists the applied
    involutive coordinate maps, newest last.  ``triples`` is empty when the
    input is already acyclic.
    """

    pairs: tuple[TerminalPair, ...]
    steps: tuple[str, ...]
    v: Optional[int]
    alpha: int
    beta: int
    x_hor: tuple[Point, ...]
    x_vert: tuple[Point, ...]
    triples: tuple[PassageTriple, ...]

    def derived_instance(self, triple: PassageTriple) -> list[TerminalPair]:
        """The input with the cycle pair replaced by four chained sub-pairs."""
        assert self.v is not None
        pair = next(p for p in self.pairs if p.id == self.v)
        rest = [p for p in self.pairs if p.id != self.v]
        base = max(p.id for p in self.pairs) + 1
        chain = [pair.s, triple.q_minus, triple.q, triple.q_plus, pair.t]
        ids = [self.v, base, base + 1, base + 2]
        return rest + [
            TerminalPair.make(ids[k], chain[k], chain[k + 1]) for k in range(4)
        ]


def _apply(pairs: list[TerminalPair], step: str) -> list[TerminalPair]:
    f = _TRANSFORMS[step]
    return [TerminalPair.make(p.id, f(p.s), f(p.t)) for p in pairs]


def _invert_point(p: Point, steps: tuple[str, ...]) -> Point:
    for step in reversed(steps):
        p = _TRANSFORMS[step](p)
    return p


def cut_degenerate_cycle(
    pairs: list[TerminalPair],
    cycle: list[int],
    ig: IntersectionGraph,
) -> Optional[tuple[list[TerminalPair], int, int]]:
    """Split a degenerate cycle pair so the intersection graph loses its cycle.

    Returns (new instance, split pair id, added pair id) or None when the
    cycle has no degenerate pair.  The split point is the end of the first
    cycle neighbor's overlap, so the two halves meet only at a point, each
    half keeps exactly one of the neighbors, and no other neighbor spans
    the cut; total distance is preserved by collinearity.
    """
    by_id = {p.id: p for p in pairs}
    pos = {v: k for k, v in enumerate(cycle)}
    for v in cycle:
        pair = by_id[v]
        if pair.orientation != DEGENERATE or pair.s == pair.t:
            continue
        k = pos[v]
        u1, u2 = by_id[cycle[k - 1]], by_id[cycle[(k + 1) % len(cycle)]]
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
                f"no interior grid vertex on pair {v} at {cut}"
            )
        q = Point(pair.s.x, cut) if vertical else Point(cut, pair.s.y)
        new_id = max(p.id for p in pairs) + 1
        out = [p for p in pairs if p.id != v]
        out.append(TerminalPair.make(v, pair.s, q))
        out.append(TerminalPair.make(new_id, q, pair.t))
        return out, v, new_id
    return None


def _passages_hor(pt, i, j, a, b) -> list[PassageTriple]:
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


def _passages_vert(pt, i, j, a, b) -> list[PassageTriple]:
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
    pairs = sorted(pairs, key=lambda p: p.id)
    if ig is None:
        ig = build_intersection_graph(pairs)
    if ig.class_tag in (TREE, STAR, FOREST, EDGELESS):
        return ReductionPlan(tuple(pairs), (), None, 0, 0, (), (), ())
    if ig.class_tag not in (CYCLE, TF_PSEUDOTREE):
        if (
            ig.class_tag == GENERAL
            and len(ig.components()) == 1
            and ig.edge_count == ig.n
            and len(find_cycle(ig.adjacency)) == 3
        ):
            raise TriangleFound("the unique cycle is a triangle")
        raise NotAPseudotree(f"class is {ig.class_tag}")

    cycle = find_cycle(ig.adjacency)
    by_id = {p.id: p for p in pairs}
    v = next(w for w in cycle if by_id[w].orientation != DEGENERATE)
    k = cycle.index(v)
    u1_id, u2_id = cycle[k - 1], cycle[(k + 1) % len(cycle)]

    steps: list[str] = []
    cur = list(pairs)

    def step(name: str) -> None:
        steps.append(name)
        cur[:] = _apply(cur, name)

    if by_id[v].orientation == FLIPPED:
        step("reflect_y")

    def geom():
        pv = next(p for p in cur if p.id == v)
        b1 = next(p for p in cur if p.id == u1_id).box
        b2 = next(p for p in cur if p.id == u2_id).box
        return pv, b1, b2

    pv, b1, b2 = geom()
    if not (b1.hi.x <= b2.lo.x or b2.hi.x <= b1.lo.x):
        if b1.hi.y <= b2.lo.y or b2.hi.y <= b1.lo.y:
            step("transpose")
            pv, b1, b2 = geom()
        else:
            raise NotAPseudotree("cycle neighbors are not separable")
    if b2.hi.x <= b1.lo.x:
        u1_id, u2_id = u2_id, u1_id
        b1, b2 = b2, b1

    def window():
        pv, b1, b2 = geom()
        grid = build_hanan_grid(cur)
        w = grid.subgrid(pv.box)
        xs = [grid.xs[j] for j in range(w.j_lo, w.j_hi + 1)]
        ys = [grid.ys[i] for i in range(w.i_lo, w.i_hi + 1)]
        o1 = pv.box.intersect(b1)
        o2 = pv.box.intersect(b2)
        assert o1 is not None and o2 is not None
        beta = xs.index(o1.hi.x) + 1
        alpha = ys.index(min(o1.hi.y, o2.hi.y)) + 1
        return xs, ys, alpha, beta

    xs, ys, alpha, beta = window()
    if alpha == len(ys) and beta == len(xs):
        step("rotate")
        u1_id, u2_id = u2_id, u1_id
        xs, ys, alpha, beta = window()
        assert not (alpha == len(ys) and beta == len(xs))

    a, b = len(ys), len(xs)

    def pt(i: int, j: int) -> Point:
        return Point(xs[j - 1], ys[i - 1])

    x_hor = tuple(pt(i, beta) for i in range(1, alpha + 1))
    x_vert = tuple(pt(alpha, j) for j in range(1, beta + 1))
    triples: list[PassageTriple] = []
    for i in range(1, alpha + 1):
        triples.extend(_passages_hor(pt, i, beta, a, b))
    for j in range(1, beta + 1):
        triples.extend(_passages_vert(pt, alpha, j, a, b))
    return ReductionPlan(
        tuple(cur), tuple(steps), v, alpha, beta, x_hor, x_vert, tuple(triples)
    )


def _assert_forest(derived: list[TerminalPair]) -> None:
    tag = build_intersection_graph(derived).class_tag
    if tag not in (TREE, STAR, FOREST, EDGELESS):
        raise ForestAssertionFailed(f"derived instance classifies as {tag}")


def _merge_chain(
    network: GridNetwork, chain_ids: list[int], target: TerminalPair
) -> MPath:
    """Concatenate the four sub-pair paths back into one M-path."""
    by_id = {m.pair_id: m for m in network.paths}
    points: list[Point] = []
    for k in chain_ids:
        vs = by_id[k].vertices
        points.extend(vs if not points else vs[1:] if vs[0] == points[-1] else vs)
    return MPath(target.id, tuple(points))


def solve_pseudotree(instance: list[TerminalPair]) -> GridNetwork:
    """Exact solver when the intersection graph has at most one cycle
    (triangle-free); acyclic inputs pass straight to the tree solver."""
    pairs = sorted(instance, key=lambda p: p.id)
    ig = build_intersection_graph(pairs)
    if ig.class_tag in (TREE, STAR, FOREST, EDGELESS):
        return solve_tree_fast(pairs)
    if ig.class_tag not in (CYCLE, TF_PSEUDOTREE):
        raise WrongClass(
            f"pseudotree solver cannot handle class {ig.class_tag}"
        )

    grid = build_hanan_grid(pairs)
    cycle = find_cycle(ig.adjacency)
    by_id = {p.id: p for p in pairs}

    cut = cut_degenerate_cycle(pairs, cycle, ig)
    if cut is not None:
        derived, split_id, new_id = cut
        _assert_forest(derived)
        net = solve_tree_fast(derived)
        merged = _merge_chain(net, [split_id, new_id], by_id[split_id])
        paths = [m for m in net.paths if m.pair_id not in (split_id, new_id)]
        paths.append(merged)
        paths.sort(key=lambda m: m.pair_id)
        # The two halves cover the split pair's path edge for edge.
        return GridNetwork.certified(pairs, paths, grid, net.total_length)

    plan = build_reduction_plan(pairs, ig)
    assert plan.triples, "nondegenerate cycle must yield passage triples"
    best_net: Optional[GridNetwork] = None
    best_triple: Optional[PassageTriple] = None
    for triple in plan.triples:
        derived = plan.derived_instance(triple)
        _assert_forest(derived)
        net = solve_tree_fast(derived)
        if best_net is None or net.total_length < best_net.total_length:
            best_net, best_triple = net, triple

    assert best_net is not None and best_triple is not None
    base = max(p.id for p in plan.pairs) + 1
    chain_ids = [plan.v, base, base + 1, base + 2]
    pv = next(p for p in plan.pairs if p.id == plan.v)
    merged = _merge_chain(best_net, chain_ids, pv)
    paths = [m for m in best_net.paths if m.pair_id not in chain_ids]
    paths.append(merged)
    # Undo the normalization maps on every vertex.
    restored = []
    for m in sorted(paths, key=lambda m: m.pair_id):
        vs = tuple(_invert_point(p, plan.steps) for p in m.vertices)
        if vs and vs[0] != by_id[m.pair_id].s:
            vs = vs[::-1]
        restored.append(MPath(m.pair_id, vs))
    final = [
        MPath(m.pair_id, densify(grid, list(m.vertices))) for m in restored
    ]
    return GridNetwork.certified(pairs, final, grid, best_net.total_length)
