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
    FLIPPED,
    IDENTITY,
    MIRROR,
    Frame,
    GridNetwork,
    HananGrid,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    densify,
)
from .instance_graph import (
    ACYCLIC,
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
    shared_constraint,
    splice_center,
)

# Child gadgets are labeled by vertex, so no pair id can collide with it.
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
    # frame -> (pairs, Hanan grid) in that frame, built on first use
    views: dict[Frame, tuple[list[TerminalPair], HananGrid]] = field(
        default_factory=dict, repr=False
    )

    def children(self, v: int) -> tuple[int, ...]:
        return self.tree.children[v]

    def view(self, frame: Frame) -> tuple[list[TerminalPair], HananGrid]:
        """The component's pairs and Hanan grid in ``frame``; every node and
        cell of one orientation shares it."""
        if frame not in self.views:
            fpairs = frame.pairs(self.pairs)
            self.views[frame] = (fpairs, build_hanan_grid(fpairs))
        return self.views[frame]

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
    pairs = list(ig.pairs)
    ctx = TreeContext(pairs, ig.grid, tree, {}, {IDENTITY: (pairs, ig.grid)})
    for v in tree.postorder:
        table = node_table(ctx, v)
        eps = table[EPSILON]
        low = [key for key, value in table.items() if value < eps]
        if low:
            raise CertificateFailed(f"node {v}: cell {low[0]} below epsilon {eps}")
        ctx.tables[v] = table
    return ctx


def _build_cell_dag(
    ctx: TreeContext, v: int, inout: InOutPair
) -> tuple[AuxDag, int, Frame, Optional[TerminalPair]]:
    """The auxiliary DAG for one table cell, in v's normalized frame.

    Returns (dag, kappa, frame, parent crossing as a pair in the frame, or
    None for epsilon).
    """
    frame = MIRROR if ctx.pairs[v].orientation == FLIPPED else IDENTITY
    fpairs, grid_v = ctx.view(frame)
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
            gadgets.append(GadgetSpec(w, window, style, weight))

    parent = None
    if not inout.is_epsilon:
        p_f, q_f = frame.fwd(inout.p), frame.fwd(inout.q)
        parent = TerminalPair.make(PARENT_GADGET_ID, p_f, q_f)
        window = grid_v.subgrid(parent.box)
        style = gadget_style(window, parent.orientation, None)
        if style is not None:
            gadgets.append(GadgetSpec(PARENT_GADGET_ID, window, style))
    return AuxDag(grid_v, center, gadgets), kappa, frame, parent


def compute_dp_cell(ctx: TreeContext, v: int, inout: InOutPair) -> int:
    """Maximum total shared length inside v's subtree for one parent crossing.

    Longest source-sink path of the cell's DAG plus the children's
    unconditional table values.
    """
    if not ctx.children(v) and inout.is_epsilon:
        return 0
    dag, kappa, _, _ = _build_cell_dag(ctx, v, inout)
    return dag.best_value(dag.forward()) + kappa


def _reconstruct(ctx: TreeContext) -> dict[int, list[Point]]:
    """Realize every node's path for the root's epsilon cell.

    A top-down pass decodes each node's witness for the cell its parent's
    witness chose.  That fixes the node's children's cells and the node's
    requirement: the parent's subpath, from the canonical in-out entry to
    the exit, that the node's path shares.  A second pass splices each
    child's requirement into its parent's path.  Returns node → path
    waypoints in the original frame.
    """
    keys: dict[int, InOutPair] = {ctx.tree.root: EPSILON}
    requirement: dict[int, list[Point]] = {}
    decoded = []  # (node, frame, witness waypoints, crossings, portions)
    for v in ctx.tree.preorder:
        inout = keys[v]
        dag, _, frame, parent = _build_cell_dag(ctx, v, inout)
        _, crossings, waypoints = dag.witness(dag.forward())
        # Per crossing, in v's frame; a child's portion is its requirement,
        # known after this pass.
        portions: list[Optional[list[Point]]] = []
        for c in crossings:
            if c.pair_id == PARENT_GADGET_ID:
                mode = crossing_mode(parent.orientation, c)
                portions.append(center_portion(mode, c))
                req_f = path_through_constraint(parent, shared_constraint(mode, c))
                requirement[v] = frame.path_back(inout.p, req_f)
                continue
            keys[c.pair_id] = InOutPair.make(frame.back(c.entry), frame.back(c.exit))
            portions.append(None)
        for w in ctx.children(v):
            keys.setdefault(w, EPSILON)
        if not inout.is_epsilon and v not in requirement:
            # v's path avoids the crossing box entirely; any parent subpath works.
            pseudo = TerminalPair.make(PARENT_GADGET_ID, inout.p, inout.q)
            requirement[v] = default_l_path(pseudo)
        decoded.append((v, frame, waypoints, crossings, portions))

    paths: dict[int, list[Point]] = {}
    for v, frame, waypoints, crossings, portions in decoded:
        for k, c in enumerate(crossings):
            if portions[k] is not None:
                continue
            portion = frame.inverse.path_back(c.entry, requirement[c.pair_id])
            assert portion[0] == c.entry and portion[-1] == c.exit
            portions[k] = portion
        pts = splice_center(waypoints, crossings, portions)
        paths[v] = frame.path_back(ctx.pairs[v].s, pts)
    return paths


def solve_forest(
    instance: list[TerminalPair],
    prepare: Callable[[list[TerminalPair], Optional[IntersectionGraph]], TreeContext],
    ig: Optional[IntersectionGraph] = None,
) -> GridNetwork:
    """Exact solver for forest-shaped intersection graphs.

    ``prepare(pairs, ig)`` roots one component, given its induced subgraph,
    and fills its tables; the driver solves every component, realizes the
    paths top-down and certifies the total against the root tables.
    """
    if ig is None:
        ig = build_intersection_graph(instance)
    pairs = ig.pairs
    if ig.class_tag not in ACYCLIC:
        raise WrongClass(
            f"tree solver requires an acyclic intersection graph, got {ig.class_tag}"
        )
    grid = ig.grid
    paths: list[MPath] = []
    shared = 0
    for comp in ig.components():
        if len(comp) == 1:
            pair = pairs[comp[0]]
            paths.append(MPath(pair.id, densify(grid, default_l_path(pair))))
            continue
        sub = ig.induced(comp)
        ctx = prepare(list(sub.pairs), sub)
        root = ctx.tree.root
        shared += ctx.tables[root][EPSILON]
        node_paths = _reconstruct(ctx)
        paths.extend(
            MPath(ctx.pairs[v].id, densify(grid, pts))
            for v, pts in sorted(node_paths.items())
        )
    paths.sort(key=lambda m: m.pair_id)
    expected = sum(p.distance for p in pairs) - shared
    return GridNetwork.certified(pairs, paths, grid, expected)


def solve_tree(
    instance: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> GridNetwork:
    """Exact solver for forests, filling every cell by the reference query."""
    return solve_forest(instance, prepare_tree, ig)
