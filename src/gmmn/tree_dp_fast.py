"""Bulk table fill for the tree dynamic program of ``tree_dp``.

`solve_tree_fast` is the one tree driver of ``tree_dp`` (`solve_forest`,
`prepare_tree`) run with this module's per-node fill, `fast_node_table`.
Table semantics are identical to the reference fill, but a node's table is
filled in bulk instead of one longest-path run per cell: a forward and a
backward sweep over the node's unconstrained DAG give prefix/suffix values
("lambda tables"), and six closed-form recursions — three per parent
orientation, selected by where the parent's path can enter and leave the
node's box — produce every cell of the parent-crossing table from those
sweeps.  Degenerate pairs and fully nested parents fall back to the direct
per-cell computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DegenerateHandledElsewhere, WrongClass
from .geometry import (
    DEGENERATE,
    FLIPPED,
    GridNetwork,
    HananGrid,
    Point,
    TerminalPair,
)

# build_intersection_graph stays bound here although this module does not
# call it: the benchmark tracer (perfbench/) patches every gmmn namespace
# that binds it, and its tests expect this one among them.
from .instance_graph import IntersectionGraph, build_intersection_graph  # noqa: F401
from .star_dag import NEG, AuxDag
from .tree_dp import (
    EPSILON,
    InOutPair,
    Table,
    TreeContext,
    _build_cell_dag,
    direct_cells,
    prepare_tree,
    solve_forest,
)

RA, RB, RC = "Ra", "Rb", "Rc"
FA, FB, FC = "Fa", "Fb", "Fc"
DIRECT = "direct"


def _dist(p: Point, q: Point) -> int:
    return abs(p.x - q.x) + abs(p.y - q.y)


def _axis_max(p: Point, q: Point) -> int:
    """Sharable length against a flipped crossing: one axis only."""
    return max(abs(p.x - q.x), abs(p.y - q.y))


@dataclass
class LambdaTables:
    """Sweep values over a node's unconstrained DAG plus the child baseline.

    ``fwd[z]``/``bwd[z]`` are the longest source-to-z and z-to-sink values of
    the node's cell DAG without any parent crossing; ``kappa`` is the sum of
    the children's unconditional table values.
    """

    dag: AuxDag
    kappa: int
    fwd: list[int]
    bwd: list[int]

    def lam_fwd(self, z: Point) -> int:
        i, j = self.dag.grid.pos(z)
        return self.dag.value_at(self.fwd, i, j)

    def lam_bwd(self, z: Point) -> int:
        i, j = self.dag.grid.pos(z)
        return self.dag.value_at(self.bwd, i, j)

    def lam_through(self, z: Point) -> int:
        """Longest source-to-sink value constrained to pass through ``z``.

        Must be used whenever a prefix and a suffix meet at the same point:
        ``lam_fwd(z) + lam_bwd(z)`` may pick two different node copies whose
        gadget states are incompatible and overstate the value.
        """
        i, j = self.dag.grid.pos(z)
        return self.dag.through_at(self.fwd, self.bwd, i, j)

    @property
    def eps_value(self) -> int:
        return self.dag.best_value(self.fwd) + self.kappa


def precompute_lambda_kappa(ctx: TreeContext, v: int):
    """Both longest-path sweeps over the node's epsilon DAG, plus kappa.

    Returns (tables, frame); all geometry in the tables lives in the node's
    normalized frame (the frame reflects y when the node is flipped).
    """
    dag, kappa, frame, _ = _build_cell_dag(ctx, v, EPSILON)
    # A path may end inside a gadget exit state at the sink position, so the
    # backward sweep seeds every node there (matching witness extraction).
    sink_nodes = frozenset(dag.nodes_at(dag.sink_pos))
    return LambdaTables(dag, kappa, dag.forward(), dag.backward(sink_nodes)), frame


@dataclass
class CaseDescriptor:
    """One bulk-fill instance mapped onto its recursion's corner convention.

    ``pos(i, j)`` resolves the 1-based local window index to a grid point of
    the node's frame; axis flips and transposes are folded into this map so
    each recursion is implemented once.  ``swap_lambda`` marks the symmetries
    that exchange the roles of the path's two endpoints.
    """

    tag: str
    a: int
    b: int
    pos: Callable[[int, int], Point]
    swap_lambda: bool


def _make_pos(
    xs: list[int], ys: list[int], x_rev: bool, y_rev: bool, i_is_x: bool
) -> Callable[[int, int], Point]:
    nx, ny = len(xs), len(ys)

    def xsel(t: int) -> int:
        return xs[nx - t] if x_rev else xs[t - 1]

    def ysel(t: int) -> int:
        return ys[ny - t] if y_rev else ys[t - 1]

    if i_is_x:
        return lambda i, j: Point(xsel(i), ysel(j))
    return lambda i, j: Point(xsel(j), ysel(i))


def classify_inout_case(
    v_pair: TerminalPair, u_pair: TerminalPair, grid: HananGrid
) -> list[CaseDescriptor]:
    """Constant-size cover of every possible parent crossing of the window.

    Works in the node's normalized frame (``v_pair`` regular).  Each endpoint
    of the parent's crossing is either fixed (the parent terminal lies inside
    the node's box, hence at a window corner) or moves along the window sides
    through which the parent's box leaves the node's box; every combination
    becomes one descriptor.  Raises DegenerateHandledElsewhere when a pair is
    degenerate or the parent's box nests inside the node's box.
    """
    if DEGENERATE in (v_pair.orientation, u_pair.orientation):
        raise DegenerateHandledElsewhere("degenerate pair")
    box = v_pair.box.intersect(u_pair.box)
    if box is None:
        raise WrongClass("parent and child boxes do not overlap")
    w = grid.subgrid(box)
    xs = [grid.xs[j] for j in range(w.j_lo, w.j_hi + 1)]
    ys = [grid.ys[i] for i in range(w.i_lo, w.i_hi + 1)]
    nx, ny = len(xs), len(ys)
    bv, bu = v_pair.box, u_pair.box
    flipped = u_pair.orientation == FLIPPED

    if flipped:
        # Endpoints sit at the upper-left and lower-right corners of B(u).
        e1 = [s for s, ok in (("left", bu.lo.x < bv.lo.x), ("top", bu.hi.y > bv.hi.y)) if ok]
        e2 = [s for s, ok in (("right", bu.hi.x > bv.hi.x), ("bottom", bu.lo.y < bv.lo.y)) if ok]
    else:
        e1 = [s for s, ok in (("left", bu.lo.x < bv.lo.x), ("bottom", bu.lo.y < bv.lo.y)) if ok]
        e2 = [s for s, ok in (("right", bu.hi.x > bv.hi.x), ("top", bu.hi.y > bv.hi.y)) if ok]
    if not e1 and not e2:
        raise DegenerateHandledElsewhere("parent box nested in the node's box")
    sides1 = e1 or ["fixed"]
    sides2 = e2 or ["fixed"]

    # (endpoint-1 location, endpoint-2 location) -> recursion + index remap.
    # Remap entries: (tag, x_rev, y_rev, i_is_x, swap_lambda); the canonical
    # orientation of each recursion is reached by axis flips / transposes.
    regular_map = {
        ("fixed", "right"): (RA, False, False, False, False),
        ("fixed", "top"): (RA, False, False, True, False),
        ("left", "fixed"): (RA, True, True, False, True),
        ("bottom", "fixed"): (RA, True, True, True, True),
        ("bottom", "right"): (RB, True, False, False, False),
        ("left", "top"): (RB, False, True, True, False),
        ("bottom", "top"): (RC, True, False, False, False),
        ("left", "right"): (RC, False, True, True, False),
    }
    flipped_map = {
        ("fixed", "right"): (FA, True, True, False, False),
        ("fixed", "bottom"): (FA, False, False, True, True),
        ("left", "fixed"): (FA, False, False, False, True),
        ("top", "fixed"): (FA, True, True, True, False),
        ("top", "right"): (FB, True, True, False, False),
        ("left", "bottom"): (FB, False, False, False, True),
        ("top", "bottom"): (FC, True, True, False, False),
        ("left", "right"): (FC, True, True, True, False),
    }
    table = flipped_map if flipped else regular_map

    out: list[CaseDescriptor] = []
    for s1 in sides1:
        for s2 in sides2:
            tag, x_rev, y_rev, i_is_x, swap = table[(s1, s2)]
            a, b = (nx, ny) if i_is_x else (ny, nx)
            pos = _make_pos(xs, ys, x_rev, y_rev, i_is_x)
            out.append(CaseDescriptor(tag, a, b, pos, swap))
    return out


# ----------------------------------------------------------------------
# the six bulk fills

Cells = list[tuple[Point, Point, int]]


def _fill_ra(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Fixed entry at the window's origin corner, exit on the far column."""
    a, b, pos = desc.a, desc.b, desc.pos
    om = [[0] * (b + 1) for _ in range(a + 1)]
    om[1][1] = lam_s(pos(1, 1))
    for i in range(2, a + 1):
        om[i][1] = max(om[i - 1][1] + _dist(pos(i - 1, 1), pos(i, 1)), lam_s(pos(i, 1)))
    for j in range(2, b + 1):
        om[1][j] = max(om[1][j - 1] + _dist(pos(1, j - 1), pos(1, j)), lam_s(pos(1, j)))
    for i in range(2, a + 1):
        for j in range(2, b + 1):
            om[i][j] = max(
                om[i - 1][j] + _dist(pos(i - 1, j), pos(i, j)),
                om[i][j - 1] + _dist(pos(i, j - 1), pos(i, j)),
            )
    p11 = pos(1, 1)

    # On the first row/column, om may be a bare lam_s pickup at the cell
    # itself; adding lam_t at the same point would pair two sweep maxima
    # from incompatible node copies.  Use the value excluding that pickup
    # (the zero-sharing case is dominated by the eps clamp anyway).
    def strict(i: int, j: int) -> int:
        if i == 1 and j == 1:
            return NEG
        if i == 1:
            return om[1][j - 1] + _dist(pos(1, j - 1), pos(1, j))
        if j == 1:
            return om[i - 1][1] + _dist(pos(i - 1, 1), pos(i, 1))
        return om[i][j]

    cells: Cells = []
    for i in range(1, a + 1):
        best = max(strict(i, j) + lam_t(pos(i, j)) for j in range(1, b + 1))
        cells.append((p11, pos(i, b), max(best + kappa, eps)))
    return cells


def _fill_rb(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Entry and exit move on two adjacent sides of the window."""
    a, b, pos = desc.a, desc.b, desc.pos

    def through(i: int, j: int) -> int:
        return lam_thru(pos(i, j))

    om = [[0] * (b + 1) for _ in range(a + 1)]
    om[1][1] = through(1, 1)
    for i in range(2, a + 1):
        om[i][1] = max(om[i - 1][1] + _dist(pos(i - 1, 1), pos(i, 1)), through(i, 1))
    for j in range(2, b + 1):
        om[1][j] = max(om[1][j - 1] + _dist(pos(1, j - 1), pos(1, j)), through(1, j))
    for i in range(2, a + 1):
        for j in range(2, b + 1):
            om[i][j] = max(
                om[i - 1][j] + _dist(pos(i - 1, j), pos(i, j)),
                om[i][j - 1] + _dist(pos(i, j - 1), pos(i, j)),
                through(i, j),
            )
    cells: Cells = []
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            cells.append((pos(1, j), pos(i, 1), max(om[i][j] + kappa, eps)))
    return cells


def _column_crossing(desc, lam_s, lam_t, lam_thru) -> int:
    """Best value over straight crossings along the window's first column.

    Every source-sink path meets this full-span line, so the best split
    "prefix + shared run + suffix" over it equals the constrained optimum.
    The zero-length split at a single point goes through lam_thru so that
    the prefix and suffix come from one consistent node copy.
    """
    pts = sorted((desc.pos(i, 1) for i in range(1, desc.a + 1)), key=lambda p: p.x + p.y)
    best = run = NEG
    for pt in pts:
        best = max(best, run + (pt.x + pt.y) + lam_t(pt), lam_thru(pt))
        run = max(run, lam_s(pt) - (pt.x + pt.y))
    return best


def _fill_rc(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Entry and exit move on two opposite sides spanning the node's box."""
    a, b, pos = desc.a, desc.b, desc.pos
    straight = _column_crossing(desc, lam_s, lam_t, lam_thru) + kappa
    cells: Cells = []
    for j in range(1, b + 1):
        for k in range(1, j + 1):
            val = straight + _dist(pos(1, j), pos(1, k))
            cells.append((pos(1, j), pos(a, k), max(val, eps)))
    return cells


def _fill_fa(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Flipped parent with a fixed entry at the window's far top corner."""
    a, b, pos = desc.a, desc.b, desc.pos
    om = [[0] * (b + 1) for _ in range(a + 1)]
    lam_t11 = lam_t(pos(1, 1))
    for i in range(1, a + 1):
        om[i][1] = lam_t11 + _dist(pos(i, 1), pos(1, 1))
    # Row 1 wants max over k <= j of lam_t(p_{1,k}) + |p_{1,j} p_{1,k}|; with
    # cum(j) the distance from p_{1,1}, that is cum(j) + a running prefix max.
    # om1s keeps the k < j variant: on row 1 the k == j pickup sits at the
    # very point where the cell assembly adds lam_s, and pairing the two
    # sweep maxima at one point may mix incompatible node copies (the
    # zero-sharing case is dominated by the eps clamp).
    om1s = [NEG] * (b + 1)
    cum = 0
    run = lam_t11
    for j in range(2, b + 1):
        cum += _dist(pos(1, j - 1), pos(1, j))
        om1s[j] = cum + run
        run = max(run, lam_t(pos(1, j)) - cum)
        om[1][j] = cum + run
    for i in range(2, a + 1):
        for j in range(2, b + 1):
            om[i][j] = max(
                lam_t(pos(1, j)) + _dist(pos(i, j), pos(1, j)),
                om[i - 1][j],
                om[i][j - 1],
            )
    fixed = pos(1, b)
    cells: Cells = []
    run_b = NEG  # max over h <= i of lam_s(p_{h,b}) + om[h][b]
    for i in range(1, a + 1):
        row = om1s if i == 1 else om[i]
        run_b = max(run_b, lam_s(pos(i, b)) + row[b])
        best = max(lam_s(pos(i, j)) + row[j] for j in range(1, b + 1))
        cells.append((fixed, pos(i, 1), max(max(best, run_b) + kappa, eps)))
    return cells


def _fill_fb(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Flipped parent crossing two adjacent sides meeting at a terminal."""
    a, b, pos = desc.a, desc.b, desc.pos
    p11 = pos(1, 1)
    om = [[0] * (b + 1) for _ in range(a + 1)]
    om[1][1] = lam_s(p11)
    for i in range(2, a + 1):
        om[i][1] = max(lam_s(pos(i, 1)) + _dist(pos(i, 1), p11), om[i - 1][1])
    for j in range(2, b + 1):
        om[1][j] = max(lam_s(pos(1, j)) + _dist(pos(1, j), p11), om[1][j - 1])
    for i in range(2, a + 1):
        for j in range(2, b + 1):
            om[i][j] = max(
                lam_s(pos(i, j)) + _axis_max(pos(i, j), p11),
                om[i - 1][j],
                om[i][j - 1],
            )
    cells: Cells = []
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            cells.append((pos(1, j), pos(i, 1), max(om[i][j] + kappa, eps)))
    return cells


def _fill_fc(desc, lam_s, lam_t, lam_thru, kappa, eps) -> Cells:
    """Flipped parent crossing two opposite sides spanning the node's box."""
    a, b, pos = desc.a, desc.b, desc.pos
    straight = _column_crossing(desc, lam_s, lam_t, lam_thru) + kappa
    cells: Cells = []
    for j in range(1, b + 1):
        for k in range(1, j + 1):
            if j == k:
                val = straight
            else:
                # Vertical sharing keeps the straight-crossing value; the
                # horizontal option shares the lateral offset on top of an
                # unconstrained path.  Take the better one.
                val = max(straight, eps + _dist(pos(1, j), pos(1, k)))
            cells.append((pos(1, j), pos(a, k), max(val, eps)))
    return cells


_FILLS = {RA: _fill_ra, RB: _fill_rb, RC: _fill_rc, FA: _fill_fa, FB: _fill_fb, FC: _fill_fc}


def fill_case(desc: CaseDescriptor, lt: LambdaTables) -> Cells:
    """Table cells (entry point, exit point, dp value) for one descriptor."""
    lam_s = lt.lam_bwd if desc.swap_lambda else lt.lam_fwd
    lam_t = lt.lam_fwd if desc.swap_lambda else lt.lam_bwd
    return _FILLS[desc.tag](
        desc, lam_s, lam_t, lt.lam_through, lt.kappa, lt.eps_value
    )


# ----------------------------------------------------------------------
# per-node assembly and the solver


def fast_node_table(
    ctx: TreeContext, v: int
) -> tuple[Table, dict[InOutPair, str]]:
    """One node's dp table via bulk fills, with the case tag of each cell."""
    lt, frame = precompute_lambda_kappa(ctx, v)
    eps = lt.eps_value
    table: Table = {EPSILON: eps}
    tags: dict[InOutPair, str] = {}
    u = ctx.tree.parent[v]
    if u is None:
        return table, tags
    fpairs, _ = ctx.view(frame)
    try:
        descs = classify_inout_case(fpairs[v], fpairs[u], lt.dag.grid)
    except DegenerateHandledElsewhere:
        direct = direct_cells(ctx, v)
        table.update(direct)
        return table, dict.fromkeys(direct, DIRECT)
    for desc in descs:
        for p_f, q_f, val in fill_case(desc, lt):
            key = InOutPair.make(frame.back(p_f), frame.back(q_f))
            if key not in table or val > table[key]:
                table[key] = val
                tags[key] = desc.tag
    return table, tags


def _fast_table(ctx: TreeContext, v: int) -> Table:
    return fast_node_table(ctx, v)[0]


def prepare_tree_fast(
    pairs: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> TreeContext:
    """`prepare_tree` with the bulk fill."""
    return prepare_tree(pairs, ig, _fast_table)


def solve_tree_fast(
    instance: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> GridNetwork:
    """Exact accelerated solver for forest-shaped intersection graphs."""
    return solve_forest(instance, prepare_tree_fast, ig)
