"""Dynamic program for tree-shaped intersection graphs: the one driver.

Each non-root pair v gets a table mapping an "in-out pair" — the entry and
exit vertex of the parent's path through the shared window, or epsilon when
the parent shares nothing — to the maximum total length of segments shared
inside v's subtree.  Every cell is a longest-path query on an auxiliary DAG
over v's subgrid whose gadgets encode the children's table differences and
the parent crossing.

`prepare_tree` roots one component and fills its tables bottom-up with a
per-node fill; `solve_forest` solves every component, realizes the paths
top-down and certifies the total.  This module's fill, `reference_table`,
runs one longest-path query per cell (`compute_dp_cell`); it favors clarity
over speed and is the differential-testing reference for the bulk fill of
``tree_dp_fast``.  `solve_tree` is the driver with the reference fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import CertificateFailed, WrongClass
from .geometry import (
    DEGENERATE,
    FLIPPED,
    BoundingBox,
    GridNetwork,
    HananGrid,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    densify,
    join,
    meet,
)
from .instance_graph import (
    EDGELESS,
    FOREST,
    STAR,
    TREE,
    IntersectionGraph,
    RootedTree,
    build_intersection_graph,
    root_tree,
)
from .star_dag import (
    AuxDag,
    GadgetSpec,
    center_portion,
    crossing_mode,
    default_l_path,
    gadget_style,
    path_through_constraint,
    reflect_instance,
    reflect_point,
    shared_constraint,
    splice_center,
)

PARENT_GADGET_ID = -1


@dataclass(frozen=True)
class InOutPair:
    """Entry/exit vertices of the parent's path through the shared window.

    ``EPSILON`` (both fields None) means the parent's path avoids the window.
    Non-epsilon pairs are stored with p lexicographically <= q, which makes
    the key independent of the parent's traversal direction.
    """

    p: Optional[Point]
    q: Optional[Point]

    @classmethod
    def make(cls, p: Point, q: Point) -> "InOutPair":
        if q < p:
            p, q = q, p
        return cls(p, q)

    @property
    def is_epsilon(self) -> bool:
        return self.p is None

    @property
    def is_point(self) -> bool:
        return self.p is not None and self.p == self.q


EPSILON = InOutPair(None, None)


def enumerate_inout_pairs(
    v: TerminalPair, u: TerminalPair, grid: HananGrid
) -> list[InOutPair]:
    """All candidate parent crossings of the window B(v) ∩ B(u).

    Entry and exit of any M-path through a box lie on the window boundary,
    so boundary-vertex pairs (plus epsilon and single-vertex pairs) are a
    superset of the realizable crossings; unrealizable cells are harmless
    because the parent's DAG never selects them.
    """
    box = v.box.intersect(u.box)
    if box is None:
        raise WrongClass("in-out pairs require overlapping boxes")
    w = grid.subgrid(box)
    boundary = [
        grid.vertex(i, j)
        for i, j in w.positions()
        if i in (w.i_lo, w.i_hi) or j in (w.j_lo, w.j_hi)
    ]
    out = [EPSILON]
    for a in range(len(boundary)):
        for b in range(a, len(boundary)):
            out.append(InOutPair.make(boundary[a], boundary[b]))
    return out


@dataclass
class TreeContext:
    """Everything a per-cell computation needs for one tree component."""

    pairs: list[TerminalPair]  # component pairs, indexed by node id
    grid: HananGrid
    tree: RootedTree
    tables: dict[int, dict[InOutPair, int]]
    # reflected? -> (pairs, Hanan grid) in that frame, built on first use
    views: dict[bool, tuple[list[TerminalPair], HananGrid]] = field(
        default_factory=dict, repr=False
    )

    def children(self, v: int) -> tuple[int, ...]:
        return self.tree.children[v]

    def view(self, reflected: bool) -> tuple[list[TerminalPair], HananGrid]:
        """The component's pairs and Hanan grid in the identity or the
        y-reflected frame; every node and cell of one orientation shares it."""
        if reflected not in self.views:
            fpairs = reflect_instance(self.pairs) if reflected else self.pairs
            self.views[reflected] = (fpairs, build_hanan_grid(fpairs))
        return self.views[reflected]

    def eps_value(self, w: int) -> int:
        return self.tables[w][EPSILON]


Table = dict[InOutPair, int]


def reference_table(ctx: TreeContext, v: int) -> Table:
    """One node's table, one longest-path query per cell."""
    table = {EPSILON: compute_dp_cell(ctx, v, EPSILON)}
    if ctx.tree.parent[v] is not None:
        table.update(direct_cells(ctx, v))
    return table


def direct_cells(ctx: TreeContext, v: int) -> Table:
    """Every parent-crossing cell of a non-root node, one query each."""
    u = ctx.tree.parent[v]
    keys = enumerate_inout_pairs(ctx.pairs[v], ctx.pairs[u], ctx.grid)
    return {key: compute_dp_cell(ctx, v, key) for key in keys if not key.is_epsilon}


def prepare_tree(
    pairs: list[TerminalPair],
    ig: Optional[IntersectionGraph] = None,
    node_table: Callable[[TreeContext, int], Table] = reference_table,
) -> TreeContext:
    """Root one tree component and fill every node's table bottom-up.

    Raises CertificateFailed when a cell falls below its epsilon cell:
    letting the parent cross the window can only add sharing.
    """
    if ig is None:
        ig = build_intersection_graph(pairs)
    tree = root_tree(ig)
    ctx = TreeContext(sorted(pairs, key=lambda p: p.id),
                      build_hanan_grid(pairs), tree, {})
    for v in tree.postorder:
        table = node_table(ctx, v)
        eps = table[EPSILON]
        low = [key for key, value in table.items() if value < eps]
        if low:
            raise CertificateFailed(f"node {v}: cell {low[0]} below epsilon {eps}")
        ctx.tables[v] = table
    return ctx


@dataclass
class _Frame:
    """Per-node coordinate frame (identity or y-reflection)."""

    reflected: bool

    def fwd(self, p: Point) -> Point:
        return reflect_point(p) if self.reflected else p

    back = fwd  # the reflection is an involution


def _build_cell_dag(
    ctx: TreeContext, v: int, inout: InOutPair
) -> tuple[AuxDag, int, _Frame, str]:
    """The auxiliary DAG for one table cell, in v's normalized frame.

    Returns (dag, kappa, frame, parent crossing shape).
    """
    frame = _Frame(ctx.pairs[v].orientation == FLIPPED)
    fpairs, grid_v = ctx.view(frame.reflected)
    center = fpairs[v]

    gadgets: list[GadgetSpec] = []
    kappa = 0
    for w in ctx.children(v):
        kappa += ctx.eps_value(w)
        box = center.box.intersect(fpairs[w].box)
        assert box is not None
        window = grid_v.subgrid(box)

        def weight(
            p: Point, q: Point, _table=ctx.tables[w], _eps=ctx.eps_value(w)
        ) -> int:
            key = InOutPair.make(frame.back(p), frame.back(q))
            return _table.get(key, _eps) - _eps

        style = gadget_style(window, None, weight)
        if style is not None:
            gadgets.append(GadgetSpec(ctx.pairs[w].id, window, style, weight))

    shape = DEGENERATE
    if not inout.is_epsilon:
        p_f, q_f = frame.fwd(inout.p), frame.fwd(inout.q)
        shape = TerminalPair.make(PARENT_GADGET_ID, p_f, q_f).orientation
        window = grid_v.subgrid(BoundingBox(meet(p_f, q_f), join(p_f, q_f)))
        style = gadget_style(window, shape, None)
        if style is not None:
            gadgets.append(GadgetSpec(PARENT_GADGET_ID, window, style))
    return AuxDag(grid_v, center, gadgets), kappa, frame, shape


def compute_dp_cell(ctx: TreeContext, v: int, inout: InOutPair) -> int:
    """Maximum total shared length inside v's subtree for one parent crossing.

    Longest source-sink path of the cell's DAG plus the children's
    unconditional table values.
    """
    if not ctx.children(v) and inout.is_epsilon:
        return 0
    dag, kappa, _, _ = _build_cell_dag(ctx, v, inout)
    return dag.best_value(dag.forward()) + kappa


def _reconstruct(
    ctx: TreeContext, v: int, inout: InOutPair
) -> tuple[dict[int, list[Point]], Optional[list[Point]]]:
    """Realize v's subtree for the chosen cell.

    Returns (node → path waypoints in the original frame, and — when the
    cell is non-epsilon — the parent's required subpath from the canonical
    in-out entry to the exit, which the caller embeds into its own path).
    """
    dag, _, frame, shape = _build_cell_dag(ctx, v, inout)
    node_of = {ctx.pairs[w].id: w for w in ctx.children(v)}
    lam = dag.forward()
    _, crossings, waypoints = dag.witness(lam)

    requirement: Optional[list[Point]] = None
    portions: list[list[Point]] = []  # per crossing, in v's frame
    paths: dict[int, list[Point]] = {}
    seen_children: set[int] = set()

    for c in crossings:
        if c.pair_id == PARENT_GADGET_ID:
            mode = crossing_mode(shape, c)
            portions.append(center_portion(mode, c))
            constraint = shared_constraint(mode, c)
            pseudo = TerminalPair.make(
                PARENT_GADGET_ID, frame.fwd(inout.p), frame.fwd(inout.q)
            )
            req_f = path_through_constraint(pseudo, constraint)
            requirement = [frame.back(pt) for pt in req_f]
            canonical = InOutPair.make(inout.p, inout.q)
            if requirement[0] != canonical.p:
                requirement.reverse()
            continue
        w = node_of[c.pair_id]
        seen_children.add(w)
        key = InOutPair.make(frame.back(c.entry), frame.back(c.exit))
        sub_paths, sub_req = _reconstruct(ctx, w, key)
        paths.update(sub_paths)
        assert sub_req is not None
        portion = [frame.fwd(pt) for pt in sub_req]
        if portion[0] != c.entry:
            portion.reverse()
        assert portion[0] == c.entry and portion[-1] == c.exit
        portions.append(portion)

    for w in ctx.children(v):
        if w not in seen_children:
            sub_paths, _ = _reconstruct(ctx, w, EPSILON)
            paths.update(sub_paths)

    if not inout.is_epsilon and requirement is None:
        # v's path avoids the crossing box entirely; any parent subpath works.
        pseudo = TerminalPair.make(PARENT_GADGET_ID, inout.p, inout.q)
        requirement = default_l_path(pseudo)

    pts = splice_center(waypoints, crossings, portions)
    original = [frame.back(pt) for pt in pts]
    if original[0] != ctx.pairs[v].s:
        original.reverse()
    paths[v] = original
    return paths, requirement


def solve_forest(
    instance: list[TerminalPair],
    prepare: Callable[[list[TerminalPair], Optional[IntersectionGraph]], TreeContext],
) -> GridNetwork:
    """Exact solver for forest-shaped intersection graphs.

    ``prepare(pairs, ig)`` roots one component and fills its tables; the
    driver solves every component, realizes the paths top-down and
    certifies the total against the root tables.
    """
    pairs = sorted(instance, key=lambda p: p.id)
    ig = build_intersection_graph(pairs)
    if ig.class_tag not in (TREE, STAR, EDGELESS, FOREST):
        raise WrongClass(
            f"tree solver requires an acyclic intersection graph, got {ig.class_tag}"
        )
    grid = build_hanan_grid(pairs)
    paths: list[MPath] = []
    shared = 0
    for comp in ig.components():
        if len(comp) == 1:
            pair = pairs[comp[0]]
            paths.append(MPath(pair.id, densify(grid, default_l_path(pair))))
            continue
        if len(comp) < ig.n:
            ctx = prepare([pairs[k] for k in comp], None)
        else:
            ctx = prepare(pairs, ig)
        root = ctx.tree.root
        shared += ctx.tables[root][EPSILON]
        node_paths, _ = _reconstruct(ctx, root, EPSILON)
        paths.extend(
            MPath(ctx.pairs[v].id, densify(grid, pts))
            for v, pts in sorted(node_paths.items())
        )
    paths.sort(key=lambda m: m.pair_id)
    expected = sum(p.distance for p in pairs) - shared
    return GridNetwork.certified(pairs, paths, grid, expected)


def solve_tree(instance: list[TerminalPair]) -> GridNetwork:
    """Exact solver for forests, filling every cell by the reference query."""
    return solve_forest(instance, prepare_tree)
