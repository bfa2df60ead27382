"""Auxiliary longest-path DAG over a center pair's subgrid.

The DAG encodes, for one "center" pair v and a set of window gadgets (one
per neighboring pair), the maximum total length of segments an M-path of v
can share with the neighbors' paths.  Grid arcs have length 0 and are
oriented lower-left to upper-right; each gadget replaces the grid inside
its window with arcs whose lengths are the sharable amounts.

Gadget styles:

* ``full``      — every (entry, exit) boundary pair gets its own arc with a
                  caller-supplied weight (used with per-cell DP weights and
                  for cross-checking the simplified constructions).
* ``regular``   — O(width+height) arcs for a regular neighbor sharing
                  d(p, q) on a crossing (p, q): one axis-aligned arc per
                  entry vertex plus true-length arcs along the exit boundary.
* ``flipped``   — O(width+height) arcs for a flipped neighbor sharing
                  max{d_x, d_y}: exit vertices are doubled into hor/vert
                  copies accumulating x- and y-extent separately; the window
                  corners are split with a one-way glue arc.
* ``deg-unit``  — collinear window; the grid arcs along it get their true
                  length (sharing with the unique M-path is additive).
* ``deg-dense`` — collinear window with non-additive weights; one arc per
                  sub-segment (p, q), chaining blocked via exit copies.

The grid arcs are indexed once per DAG, by the position each one enters,
and every sweep reads that index in one row-major pass (see `AuxDag`).
The center is assumed non-flipped: callers solve a flipped center in the
`geometry.MIRROR` frame and map its paths back with `Frame.path_back`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional

from .errors import CertificateFailed, Unreachable, WrongClass
from .geometry import (
    DEGENERATE,
    FLIPPED,
    IDENTITY,
    MIRROR,
    REGULAR,
    GridNetwork,
    HananGrid,
    MPath,
    Point,
    SubgridWindow,
    TerminalPair,
    build_hanan_grid,
    densify,
    dist_x,
    dist_y,
    manhattan_distance,
)
from .instance_graph import EDGELESS, STAR, IntersectionGraph, build_intersection_graph

NEG = -(1 << 62)

FULL = "full"
DEG_UNIT = "deg-unit"
DEG_DENSE = "deg-dense"

# Arc kinds recorded in metadata (grid arcs carry no metadata).
K_INT = "int"  # interior arc, weight = sharable length for the crossing
K_IHOR = "ihor"  # flipped interior arc toward a hor copy (carries d_x)
K_IVERT = "ivert"  # flipped interior arc toward a vert copy (carries d_y)
K_BREG = "breg"  # boundary arc of a regular gadget (true length)
K_BHOR = "bhor"  # boundary arc between hor copies (d_x)
K_BVERT = "bvert"  # boundary arc between vert copies (d_y)
K_SAT = "sat"  # zero arc from a hor/vert copy back to the plain vertex
K_GLUE = "glue"  # zero arc between the two halves of a split corner

# The axis a flipped crossing shares, by the kind of its arcs.
_AXIS_HINTS = {K_IHOR: "h", K_BHOR: "h", K_IVERT: "v", K_BVERT: "v"}


def gamma(orientation: str, p: Point, q: Point) -> int:
    """Maximum sharable length between a pair of the given orientation and
    an M-path crossing its box from p to q."""
    if orientation == FLIPPED:
        return max(dist_x(p, q), dist_y(p, q))
    return manhattan_distance(p, q)


@dataclass
class GadgetSpec:
    """One neighbor window attached to the center's DAG."""

    pair_id: int  # the neighbor's label: its pair id, or its vertex in the tree dp
    window: SubgridWindow  # absolute indices into the instance grid
    style: str  # FULL / REGULAR / FLIPPED / DEG_UNIT / DEG_DENSE
    weight: Optional[Callable[[Point, Point], int]] = None


@dataclass(frozen=True)
class Crossing:
    """A decoded gadget traversal on a witness path."""

    gadget_index: int
    pair_id: int
    entry: Point
    exit: Point
    claimed: int
    axis_hint: Optional[str]  # 'h' / 'v' for flipped routes, else None


class AuxDag:
    """Longest-path DAG for one center pair.

    Nodes are (grid position, role); the plain node of position ``pos`` has
    id ``pos`` and extra copies get ids past the position count.  All arcs
    run from lexicographically smaller to larger positions, so one row-major
    sweep relaxes every node (the graph is acyclic by construction).

    The arc index is built once, with the DAG: ``h_arcs[pos]`` and
    ``v_arcs[pos]`` hold the grid arc entering ``pos`` from the left and
    from below as (length, gadget), or None when a gadget kills it or
    ``pos`` lies on that boundary.  Positions that carry copies ("copy
    positions") also get, in dicts keyed by position, the copies that grid
    arcs enter (``in_h``/``in_v``) and leave from (``out_h``/``out_v``),
    the relaxation order (``orders``: node, takes the horizontal grid arc,
    takes the vertical one) and the node list (``pos_nodes``).  Every other
    position has the one node ``pos``, which takes both grid arcs.
    """

    def __init__(
        self,
        grid: HananGrid,
        center: TerminalPair,
        gadgets: list[GadgetSpec],
    ) -> None:
        if center.orientation == FLIPPED:
            raise WrongClass("center must be normalized to non-flipped")
        self.grid = grid
        self.center = center
        self.gadgets = gadgets
        cw = grid.subgrid(center.box)
        self.cw = cw
        self.a = cw.a
        self.b = cw.b
        self.npos = self.a * self.b
        si, sj = grid.pos(center.s)
        ti, tj = grid.pos(center.t)
        self.source_pos = (si - cw.i_lo) * self.b + (sj - cw.j_lo)
        self.sink_pos = (ti - cw.i_lo) * self.b + (tj - cw.j_lo)

        self.dead: set[int] = set()
        self.copies: dict[int, dict[str, int]] = {}
        self.split: dict[int, Optional[str]] = {}  # pos -> 'UL'/'LR'/None glue
        self.sat: set[int] = set()
        self.in_arcs: dict[int, list[tuple[int, int, int]]] = {}
        self.out_arcs: dict[int, list[tuple[int, int, int]]] = {}
        self.metas: list[tuple[int, Point, Point, str]] = []

        self._mark_regions()
        self._mark_roles()
        self._assign_copy_ids()
        self._index_copy_positions()
        self._emit_gadget_arcs()
        self._emit_intra_arcs()

    # ------------------------------------------------------------------
    # construction

    def _rel(self, i: int, j: int) -> int:
        return (i - self.cw.i_lo) * self.b + (j - self.cw.j_lo)

    def _pt(self, pos: int) -> Point:
        i, j = divmod(pos, self.b)
        return self.grid.vertex(i + self.cw.i_lo, j + self.cw.j_lo)

    def _mark_regions(self) -> None:
        """Build the arc index and the dead interior positions."""
        cw, a, b = self.cw, self.a, self.b
        xs, ys = self.grid.xs, self.grid.ys
        free = (0, None)  # one shared entry for every untouched arc
        h_arcs: list[Optional[tuple[int, Optional[int]]]] = [free] * self.npos
        v_arcs: list[Optional[tuple[int, Optional[int]]]] = [free] * self.npos
        h_arcs[::b] = [None] * a  # the left column
        v_arcs[:b] = [None] * b  # the bottom row
        for g, spec in enumerate(self.gadgets):
            w = spec.window
            if spec.style == DEG_UNIT:
                # Collinear window: its grid arcs carry their true length.
                for j in range(w.j_lo + 1, w.j_hi + 1):
                    h_arcs[self._rel(w.i_lo, j)] = (xs[j] - xs[j - 1], g)
                for i in range(w.i_lo + 1, w.i_hi + 1):
                    v_arcs[self._rel(i, w.j_lo)] = (ys[i] - ys[i - 1], g)
                continue
            # Every other gadget replaces the grid arcs inside its window
            # (along its line when collinear) and drops the interior.
            ri_lo, ri_hi = w.i_lo - cw.i_lo, w.i_hi - cw.i_lo
            rj_lo, rj_hi = w.j_lo - cw.j_lo, w.j_hi - cw.j_lo
            for i in range(ri_lo, ri_hi + 1):
                row = i * b
                h_arcs[row + rj_lo + 1 : row + rj_hi + 1] = [None] * (rj_hi - rj_lo)
            for i in range(ri_lo + 1, ri_hi + 1):
                row = i * b
                v_arcs[row + rj_lo : row + rj_hi + 1] = [None] * (rj_hi - rj_lo + 1)
            for i in range(ri_lo + 1, ri_hi):
                self.dead.update(range(i * b + rj_lo + 1, i * b + rj_hi))
        self.h_arcs = h_arcs
        self.v_arcs = v_arcs

    def _mark_roles(self) -> None:
        # Pass 1: split corners of full/flipped gadgets.  When two gadgets'
        # split corners coincide (diagonal corner contact) the glue must be
        # dropped: either glue direction would let one gadget's claims chain
        # through the corner.
        for spec in self.gadgets:
            if spec.style not in (FULL, FLIPPED):
                continue
            w = spec.window
            for name, (ci, cj) in (
                ("UL", (w.i_hi, w.j_lo)),
                ("LR", (w.i_lo, w.j_hi)),
            ):
                pos = self._rel(ci, cj)
                if pos in self.split:
                    self.split[pos] = None
                else:
                    self.split[pos] = name
        # Pass 2: satellites of flipped gadgets (split wins).
        for spec in self.gadgets:
            if spec.style != FLIPPED:
                continue
            w = spec.window
            tops = [(w.i_hi, j) for j in range(w.j_lo + 1, w.j_hi + 1)]
            rights = [(i, w.j_hi) for i in range(w.i_lo + 1, w.i_hi + 1)]
            for i, j in tops + rights:
                pos = self._rel(i, j)
                if pos not in self.split:
                    self.sat.add(pos)

    def _assign_copy_ids(self) -> None:
        next_id = self.npos
        needed: dict[int, list[str]] = {}
        for pos in self.split:
            needed.setdefault(pos, []).extend(["hor", "vert"])
        for pos in self.sat:
            needed.setdefault(pos, []).extend(["hor", "vert"])
        for g, spec in enumerate(self.gadgets):
            if spec.style != DEG_DENSE:
                continue
            positions = self._dense_positions(spec.window)
            for pos in positions[1:]:
                needed.setdefault(pos, []).append(f"x{g}")
        # copy_pos[nd - npos] is the grid position of copy node nd.
        self.copy_pos: list[int] = []
        for pos in sorted(needed):
            roles = needed[pos]
            d = self.copies.setdefault(pos, {})
            for role in roles:
                if role not in d:
                    d[role] = next_id
                    next_id += 1
                    self.copy_pos.append(pos)
        self.node_count = next_id

    def _dense_positions(self, w: SubgridWindow) -> list[int]:
        if w.a == 1:
            return [self._rel(w.i_lo, j) for j in range(w.j_lo, w.j_hi + 1)]
        return [self._rel(i, w.j_lo) for i in range(w.i_lo, w.i_hi + 1)]

    def _index_copy_positions(self) -> None:
        """The per-copy-position dicts of the class docstring."""
        self.in_h: dict[int, int] = {}
        self.in_v: dict[int, int] = {}
        self.out_h: dict[int, tuple[int, ...]] = {}
        self.out_v: dict[int, tuple[int, ...]] = {}
        self.orders: dict[int, tuple[tuple[int, bool, bool], ...]] = {}
        self.pos_nodes: dict[int, tuple[int, ...]] = {}
        for pos, d in self.copies.items():
            exits = tuple(v for k, v in sorted(d.items()) if k.startswith("x"))
            # Exit copies come first: they only receive arcs from earlier
            # positions, while their own zero arcs feed the hor/vert copies.
            order = [(v, False, False) for v in exits]
            if pos in self.split:
                self.in_h[pos] = d["hor"]
                self.in_v[pos] = d["vert"]
                self.out_h[pos] = (d["hor"],) + exits
                self.out_v[pos] = (d["vert"],) + exits
                hor, vert = (d["hor"], True, False), (d["vert"], False, True)
                order += [vert, hor] if self.split[pos] == "LR" else [hor, vert]
            else:
                if exits:
                    self.out_h[pos] = (pos,) + exits
                    self.out_v[pos] = (pos,) + exits
                if pos in self.sat:
                    order += [(d["hor"], False, False), (d["vert"], False, False)]
                order.append((pos, True, True))
            self.orders[pos] = tuple(order)
            self.pos_nodes[pos] = (pos, *sorted(d.values()))

    def _push_arc(self, src: int, dst: int, length: int, meta: int) -> None:
        self.in_arcs.setdefault(dst, []).append((src, length, meta))
        self.out_arcs.setdefault(src, []).append((dst, length, meta))

    def _meta(self, g: int, p: Point, q: Point, kind: str) -> int:
        self.metas.append((g, p, q, kind))
        return len(self.metas) - 1

    def _src_nodes(
        self, pos: int, direction: Optional[str], g: int
    ) -> tuple[int, ...]:
        """Source nodes for a gadget arc of gadget ``g`` leaving ``pos``.

        Exit copies belonging to *other* gadgets are included so that a path
        may claim one gadget's segment and immediately start another
        gadget's crossing at the shared position; the arc's own gadget is
        excluded, which is what blocks same-gadget claim chaining.
        """
        base = self._dst_nodes(pos, direction)
        d = self.copies.get(pos)
        if d:
            own = f"x{g}"
            extras = tuple(
                v
                for role, v in sorted(d.items())
                if role.startswith("x") and role != own
            )
            if extras:
                return base + extras
        return base

    def _dst_nodes(self, pos: int, direction: Optional[str]) -> tuple[int, ...]:
        """Nodes at ``pos`` that receive an arc moving in ``direction``."""
        if pos in self.split:
            d = self.copies[pos]
            if direction == "h":
                return (d["hor"],)
            if direction == "v":
                return (d["vert"],)
            return (d["hor"], d["vert"])
        return (pos,)

    @staticmethod
    def _direction(p: Point, q: Point) -> Optional[str]:
        if p.y == q.y:
            return "h"
        if p.x == q.x:
            return "v"
        return None

    def _emit_gadget_arcs(self) -> None:
        for g, spec in enumerate(self.gadgets):
            if spec.style == FULL:
                self._emit_full(g, spec)
            elif spec.style == REGULAR:
                self._emit_regular(g, spec)
            elif spec.style == FLIPPED:
                self._emit_flipped(g, spec)
            elif spec.style == DEG_DENSE:
                self._emit_dense(g, spec)
            # DEG_UNIT is realized purely through re-weighted grid arcs.

    @staticmethod
    def _boundary_lists(
        w: SubgridWindow,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Entry (lower-left) and exit (upper-right) boundary positions of a
        window; the two window corners off the diagonal are in both."""
        v_ll = [(w.i_lo, j) for j in range(w.j_lo, w.j_hi + 1)] + [
            (i, w.j_lo) for i in range(w.i_lo + 1, w.i_hi + 1)
        ]
        v_ur = [(w.i_hi, j) for j in range(w.j_lo, w.j_hi + 1)] + [
            (i, w.j_hi) for i in range(w.i_lo, w.i_hi)
        ]
        return v_ll, v_ur

    def _emit_full(self, g: int, spec: GadgetSpec) -> None:
        w = spec.window
        assert spec.weight is not None
        v_ll, v_ur = self._boundary_lists(w)
        for pi, pj in v_ll:
            ppos = self._rel(pi, pj)
            if ppos in self.dead:
                continue
            pp = self._pt(ppos)
            for qi, qj in v_ur:
                if qi < pi or qj < pj or (qi == pi and qj == pj):
                    continue
                qpos = self._rel(qi, qj)
                if qpos in self.dead:
                    continue
                qq = self._pt(qpos)
                length = spec.weight(pp, qq)
                direction = self._direction(pp, qq)
                meta = self._meta(g, pp, qq, K_INT)
                for s in self._src_nodes(ppos, direction, g):
                    for t in self._dst_nodes(qpos, direction):
                        self._push_arc(s, t, length, meta)

    def _axis_crossings(self, w: SubgridWindow):
        """Yield (entry pos, entry, exit pos, exit) for every live entry
        vertex off the window corners and each live V_ur vertex axis-aligned
        with it."""
        corners = {(w.i_hi, w.j_lo), (w.i_lo, w.j_hi)}
        for pi, pj in self._boundary_lists(w)[0]:
            ppos = self._rel(pi, pj)
            if (pi, pj) in corners or ppos in self.dead:
                continue
            targets = [(pi, w.j_hi)] if pj != w.j_hi else []
            if pi != w.i_hi:
                targets.append((w.i_hi, pj))
            for qi, qj in targets:
                qpos = self._rel(qi, qj)
                if qpos not in self.dead:
                    yield ppos, self._pt(ppos), qpos, self._pt(qpos)

    def _ur_steps(self, w: SubgridWindow):
        """Yield (pos, next pos, point, next point) for every live step along
        the window's top row and right column."""
        top = [((w.i_hi, j), (w.i_hi, j + 1)) for j in range(w.j_lo, w.j_hi)]
        right = [((i, w.j_hi), (i + 1, w.j_hi)) for i in range(w.i_lo, w.i_hi)]
        for q1, q2 in top + right:
            p1, p2 = self._rel(*q1), self._rel(*q2)
            if p1 not in self.dead and p2 not in self.dead:
                yield p1, p2, self._pt(p1), self._pt(p2)

    def _emit_regular(self, g: int, spec: GadgetSpec) -> None:
        for ppos, pp, qpos, qq in self._axis_crossings(spec.window):
            direction = self._direction(pp, qq)
            meta = self._meta(g, pp, qq, K_INT)
            for s in self._src_nodes(ppos, direction, g):
                for t in self._dst_nodes(qpos, direction):
                    self._push_arc(s, t, manhattan_distance(pp, qq), meta)
        for p1, p2, a, c in self._ur_steps(spec.window):
            direction = self._direction(a, c)
            meta = self._meta(g, a, c, K_BREG)
            for s in self._src_nodes(p1, direction, g):
                for t in self._dst_nodes(p2, direction):
                    self._push_arc(s, t, manhattan_distance(a, c), meta)

    def _ur_copy(self, pos: int, role: str) -> Optional[int]:
        d = self.copies.get(pos)
        if d is None:
            return None
        return d.get(role)

    def _emit_flipped(self, g: int, spec: GadgetSpec) -> None:
        for ppos, pp, qpos, qq in self._axis_crossings(spec.window):
            hor = self._ur_copy(qpos, "hor")
            vert = self._ur_copy(qpos, "vert")
            if hor is None or vert is None:
                continue
            direction = self._direction(pp, qq)
            mh = self._meta(g, pp, qq, K_IHOR)
            mv = self._meta(g, pp, qq, K_IVERT)
            for s in self._src_nodes(ppos, direction, g):
                self._push_arc(s, hor, dist_x(pp, qq), mh)
                self._push_arc(s, vert, dist_y(pp, qq), mv)
        for p1, p2, a, c in self._ur_steps(spec.window):
            h1, h2 = self._ur_copy(p1, "hor"), self._ur_copy(p2, "hor")
            v1, v2 = self._ur_copy(p1, "vert"), self._ur_copy(p2, "vert")
            if None in (h1, h2, v1, v2):
                continue
            self._push_arc(h1, h2, dist_x(a, c), self._meta(g, a, c, K_BHOR))
            self._push_arc(v1, v2, dist_y(a, c), self._meta(g, a, c, K_BVERT))

    def _emit_dense(self, g: int, spec: GadgetSpec) -> None:
        assert spec.weight is not None
        live = [p for p in self._dense_positions(spec.window) if p not in self.dead]
        if len(live) < 2:
            return
        pts = [self._pt(pos) for pos in live]
        # The window is one grid line, so every arc runs the same direction.
        direction = self._direction(pts[0], pts[1])
        role = f"x{g}"
        for ki, ppos in enumerate(live):
            pp = pts[ki]
            srcs = self._src_nodes(ppos, direction, g)
            for qpos, qq in zip(live[ki + 1 :], pts[ki + 1 :]):
                length = spec.weight(pp, qq)
                meta = self._meta(g, pp, qq, K_INT)
                dst = self.copies[qpos][role]
                for s in srcs:
                    self._push_arc(s, dst, length, meta)

    def _emit_intra_arcs(self) -> None:
        for pos, glue in self.split.items():
            if glue is None:
                continue
            d = self.copies[pos]
            pt = self._pt(pos)
            meta = self._meta(-1, pt, pt, K_GLUE)
            if glue == "UL":
                self._push_arc(d["hor"], d["vert"], 0, meta)
            else:
                self._push_arc(d["vert"], d["hor"], 0, meta)
        for pos in self.sat:
            d = self.copies[pos]
            pt = self._pt(pos)
            meta = self._meta(-1, pt, pt, K_SAT)
            self._push_arc(d["hor"], pos, 0, meta)
            self._push_arc(d["vert"], pos, 0, meta)
        # A path that finishes one gadget's crossing exactly on another
        # gadget's boundary (a split corner or a saturated boundary vertex)
        # must be able to start that boundary's chain afresh: the killed
        # grid arcs inside the window leave the hor/vert copies as the only
        # way through.  This is a fresh entry, so it cannot re-claim the
        # gadget it just left, and monotonicity prevents combining it with
        # an earlier claim of the boundary's own gadget.
        for pos, d in self.copies.items():
            if "hor" not in d:
                continue
            exits = [v for k, v in sorted(d.items()) if k.startswith("x")]
            if not exits:
                continue
            pt = self._pt(pos)
            for e in exits:
                meta = self._meta(-1, pt, pt, K_SAT)
                self._push_arc(e, d["hor"], 0, meta)
                self._push_arc(e, d["vert"], 0, meta)

    # ------------------------------------------------------------------
    # sweeps

    def forward(self, seeds: Optional[frozenset[int]] = None) -> list[int]:
        """Longest-path values to every node from the seed set.

        ``seeds`` is a set of node ids started at value 0; it defaults to
        the source vertex of the center pair.
        """
        if seeds is None:
            seeds = frozenset((self.source_pos,))
        lam = [NEG] * self.node_count
        b = self.b
        h_arcs, v_arcs = self.h_arcs, self.v_arcs
        out_h, out_v = self.out_h, self.out_v
        in_arcs, orders = self.in_arcs, self.orders
        for pos in range(self.npos):
            h_arc, v_arc = h_arcs[pos], v_arcs[pos]
            for nd, takes_h, takes_v in orders.get(pos) or ((pos, True, True),):
                best = 0 if nd in seeds else NEG
                if takes_h and h_arc is not None:
                    for s in out_h.get(pos - 1, (pos - 1,)):
                        v = lam[s]
                        if v != NEG and v + h_arc[0] > best:
                            best = v + h_arc[0]
                if takes_v and v_arc is not None:
                    for s in out_v.get(pos - b, (pos - b,)):
                        v = lam[s]
                        if v != NEG and v + v_arc[0] > best:
                            best = v + v_arc[0]
                for s, ln, _ in in_arcs.get(nd, ()):
                    v = lam[s]
                    if v != NEG and v + ln > best:
                        best = v + ln
                lam[nd] = best
        return lam

    def backward(self, seeds: Optional[frozenset[int]] = None) -> list[int]:
        """Longest-path values from every node to the seed set.

        ``seeds`` defaults to the sink vertex of the center pair.
        """
        if seeds is None:
            seeds = frozenset((self.sink_pos,))
        mu = [NEG] * self.node_count
        b, npos = self.b, self.npos
        h_arcs, v_arcs = self.h_arcs, self.v_arcs
        in_h, in_v = self.in_h, self.in_v
        out_h, out_v = self.out_h, self.out_v
        out_arcs, orders = self.out_arcs, self.orders
        for pos in range(npos - 1, -1, -1):
            h_arc = h_arcs[pos + 1] if pos + 1 < npos else None
            v_arc = v_arcs[pos + b] if pos + b < npos else None
            h_srcs = out_h.get(pos, (pos,))
            v_srcs = out_v.get(pos, (pos,))
            h_dst = in_h.get(pos + 1, pos + 1)
            v_dst = in_v.get(pos + b, pos + b)
            for nd, _, _ in reversed(orders.get(pos) or ((pos, True, True),)):
                best = 0 if nd in seeds else NEG
                if h_arc is not None and nd in h_srcs:
                    v = mu[h_dst]
                    if v != NEG and v + h_arc[0] > best:
                        best = v + h_arc[0]
                if v_arc is not None and nd in v_srcs:
                    v = mu[v_dst]
                    if v != NEG and v + v_arc[0] > best:
                        best = v + v_arc[0]
                for t, ln, _ in out_arcs.get(nd, ()):
                    v = mu[t]
                    if v != NEG and v + ln > best:
                        best = v + ln
                mu[nd] = best
        return mu

    def nodes_at(self, pos: int) -> tuple[int, ...]:
        return self.pos_nodes.get(pos) or (pos,)

    def value_at(self, arr: list[int], i_abs: int, j_abs: int) -> int:
        """Max sweep value over all node copies at an absolute grid position."""
        pos = self._rel(i_abs, j_abs)
        return max(arr[nd] for nd in self.nodes_at(pos))

    def best_value(self, lam: list[int]) -> int:
        return max(lam[nd] for nd in self.nodes_at(self.sink_pos))

    def through_at(
        self, fwd: list[int], bwd: list[int], i_abs: int, j_abs: int
    ) -> int:
        """Best prefix+suffix split over a single node at the position.

        Unlike summing two independent `value_at` maxima, pairing the sweeps
        node by node never mixes incompatible gadget states.
        """
        pos = self._rel(i_abs, j_abs)
        return max(fwd[nd] + bwd[nd] for nd in self.nodes_at(pos))

    # ------------------------------------------------------------------
    # witness extraction

    def _predecessor(
        self, lam: list[int], nd: int
    ) -> tuple[int, Optional[int], int, Optional[int]]:
        """One predecessor achieving lam[nd]: (src, meta, length, gadget)."""
        pos = self.node_pos(nd)
        order = self.orders.get(pos) or ((pos, True, True),)
        _, takes_h, takes_v = next(t for t in order if t[0] == nd)
        grid_arcs = (
            (takes_h, self.h_arcs[pos], self.out_h, pos - 1),
            (takes_v, self.v_arcs[pos], self.out_v, pos - self.b),
        )
        for takes, arc, out, prev in grid_arcs:
            if takes and arc is not None:
                for s in out.get(prev, (prev,)):
                    if lam[s] != NEG and lam[s] + arc[0] == lam[nd]:
                        return s, None, arc[0], arc[1]
        for s, ln, meta in self.in_arcs.get(nd, ()):
            if lam[s] != NEG and lam[s] + ln == lam[nd]:
                return s, meta, ln, None
        raise Unreachable(f"no predecessor found for node {nd}")

    def node_pos(self, nd: int) -> int:
        return nd if nd < self.npos else self.copy_pos[nd - self.npos]

    def node_point(self, nd: int) -> Point:
        return self._pt(self.node_pos(nd))

    def witness(
        self,
        lam: list[int],
        seeds: Optional[frozenset[int]] = None,
        ends: Optional[frozenset[int]] = None,
    ) -> tuple[int, list[Crossing], list[Point]]:
        """Decode one optimal path for a forward sweep ``lam``.

        ``seeds``/``ends`` must match the sweep (defaults: source and sink).
        Returns (value, crossings, plain waypoints).  The waypoints trace the
        path's geometric moves; gadget crossings are reported separately with
        entry/exit points (waypoints contain the entry and exit but not the
        route in between, which the caller realizes from the crossing data).
        """
        if seeds is None:
            seeds = frozenset((self.source_pos,))
        if ends is None:
            ends = frozenset(self.nodes_at(self.sink_pos))
        nd = max(ends, key=lambda x: lam[x])
        value = lam[nd]
        if value == NEG:
            raise Unreachable("end nodes unreachable from the seed set")
        # Walk backwards, one (gadget, length, axis hint, src, dst) per arc;
        # the zero-length glue and satellite arcs stay at one point and are
        # dropped, so a crossing is a maximal run of steps in one gadget.
        steps: list[tuple[Optional[int], int, Optional[str], int, int]] = []
        while not (nd in seeds and lam[nd] == 0):
            s, meta, ln, gadget = self._predecessor(lam, nd)
            kind = None
            if meta is not None:
                gadget, _, _, kind = self.metas[meta]
            if kind not in (K_GLUE, K_SAT):
                steps.append((gadget, ln, _AXIS_HINTS.get(kind), s, nd))
            nd = s
        steps.reverse()

        crossings: list[Crossing] = []
        waypoints: list[Point] = [self.node_point(nd)]
        for g, run in groupby(steps, key=itemgetter(0)):
            _, lengths, hints, srcs, dsts = zip(*run)
            if g is None:  # plain grid moves
                waypoints.extend(map(self.node_point, dsts))
                continue
            # A flipped gadget's arcs all carry an axis hint; no other's do.
            entry, exit_ = self.node_point(srcs[0]), self.node_point(dsts[-1])
            crossings.append(Crossing(
                g, self.gadgets[g].pair_id, entry, exit_, sum(lengths), hints[-1]
            ))
            waypoints.append(exit_)
        return value, crossings, waypoints

    # ------------------------------------------------------------------
    # introspection used by tests

    def iter_arcs(self):
        """Yield every arc as (src, dst, length, kind); O(nodes + arcs)."""
        for pos in range(self.npos):
            for arc, out, prev, into in (
                (self.h_arcs[pos], self.out_h, pos - 1, self.in_h),
                (self.v_arcs[pos], self.out_v, pos - self.b, self.in_v),
            ):
                if arc is not None:
                    for s in out.get(prev, (prev,)):
                        yield s, into.get(pos, pos), arc[0], "grid"
        for dst, arcs in self.in_arcs.items():
            for src, length, meta in arcs:
                yield src, dst, length, self.metas[meta][3]

    def topo_index(self) -> dict[int, tuple[int, int]]:
        """node -> (position, local rank); every arc must increase this."""
        out: dict[int, tuple[int, int]] = {}
        for pos in range(self.npos):
            order = self.orders.get(pos) or ((pos, True, True),)
            for rank, (nd, _, _) in enumerate(order):
                out[nd] = (pos, rank)
        return out


# ----------------------------------------------------------------------
# witness realization and the star solver


def default_l_path(pair: TerminalPair) -> list[Point]:
    """Canonical M-path for an unconstrained pair: horizontal, then vertical."""
    return [pair.s, Point(pair.t.x, pair.s.y), pair.t]


def crossing_mode(orientation: str, c: Crossing) -> str:
    """Classify a crossing for realization.

    Returns one of ``free`` (nothing shared), ``line`` (collinear traversal,
    shared as-is), ``reg`` (the whole center portion is shared) or ``h``/``v``
    (one horizontal/vertical segment is shared).  Raises CertificateFailed
    when the claimed length differs from what the mode can realize.
    """
    dx = dist_x(c.entry, c.exit)
    dy = dist_y(c.entry, c.exit)
    if c.claimed == 0:
        return "free"
    if dx == 0 or dy == 0:
        mode, shared = "line", dx + dy
    elif orientation != FLIPPED:
        mode, shared = "reg", dx + dy
    elif c.axis_hint == "h" or (c.axis_hint is None and dx >= dy):
        mode, shared = "h", dx
    else:
        mode, shared = "v", dy
    if c.claimed != shared:
        raise CertificateFailed(
            f"{c} claims {c.claimed}, its route shares {shared}"
        )
    return mode


def center_portion(mode: str, c: Crossing) -> list[Point]:
    """Waypoints the center path follows from the entry to the exit."""
    p, q = c.entry, c.exit
    if mode == "line":
        return [p, q]
    if mode in ("reg", "free"):
        return [p, Point(p.x, q.y), q]
    return [p, Point(q.x, p.y), q]


def shared_constraint(
    mode: str, c: Crossing
) -> Optional[tuple[str, tuple[Point, ...]]]:
    """What the neighbor's path must contain: None, a straight segment
    ("seg", (lo, hi)) with lo <= hi componentwise, or the full center
    portion ("poly", waypoints)."""
    p, q = c.entry, c.exit
    if mode == "free":
        return None
    if mode == "line":
        return ("seg", (p, q))
    if mode == "reg":
        return ("poly", (p, Point(p.x, q.y), q))
    if mode == "h":
        return ("seg", (p, Point(q.x, p.y)))
    return ("seg", (Point(q.x, p.y), q))


def path_through_constraint(
    pair: TerminalPair, constraint: Optional[tuple[str, tuple[Point, ...]]]
) -> list[Point]:
    """Waypoints of an M-path for ``pair`` containing the given shared piece."""
    s, t = pair.s, pair.t
    if constraint is None:
        return default_l_path(pair)
    if pair.orientation == DEGENERATE:
        return [s, t]  # the box is a line; the unique path covers the piece
    kind, pts = constraint
    if kind == "poly":
        p, c, q = pts
        return [s, Point(p.x, s.y), p, c, q, Point(t.x, q.y), t]
    e1, e2 = pts
    if pair.orientation == REGULAR or e1.y == e2.y:
        return [s, Point(e1.x, s.y), e1, e2, Point(t.x, e2.y), t]
    # Flipped pair traversing a vertical segment: walk it downward.
    return [s, Point(e2.x, s.y), e2, e1, Point(t.x, e1.y), t]


def splice_center(
    waypoints: list[Point],
    crossings: list[Crossing],
    portions: list[list[Point]],
) -> list[Point]:
    """Insert each crossing's realized route (``portions[k]`` runs from the
    entry to the exit of ``crossings[k]``) into the center waypoints."""
    out: list[Point] = []
    ci = 0
    for k, pt in enumerate(waypoints):
        out.append(pt)
        if (
            ci < len(crossings)
            and pt == crossings[ci].entry
            and k + 1 < len(waypoints)
            and waypoints[k + 1] == crossings[ci].exit
        ):
            out.extend(portions[ci][1:-1])
            ci += 1
    if ci != len(crossings):
        raise Unreachable("crossing entries not found on the witness path")
    return out


def pick_center(
    instance: list[TerminalPair], ig: Optional[IntersectionGraph] = None
) -> int:
    """Vertex of the hub pair of a star instance: the first of largest degree."""
    if ig is None:
        ig = build_intersection_graph(instance)
    if ig.class_tag not in (STAR, EDGELESS):
        raise WrongClass(
            f"star solver requires a star intersection graph, got {ig.class_tag}"
        )
    return max(range(ig.n), key=lambda v: (ig.degree(v), -v))


def gadget_style(
    window: SubgridWindow,
    orientation: Optional[str],
    weight: Optional[Callable[[Point, Point], int]],
) -> Optional[str]:
    """Gadget style for a neighbor window; None when the window is a vertex.

    ``orientation`` names the neighbor whose sharing is ``gamma`` of it, or is
    None when only ``weight`` (arbitrary arc lengths) describes the sharing.
    A collinear window takes DEG_UNIT for gamma sharing, which is additive
    along a line, and DEG_DENSE otherwise.  A two-dimensional window takes
    FULL when a ``weight`` is given and the compact gadget of the
    orientation when not.
    """
    if window.a == 1 and window.b == 1:
        return None
    if window.a == 1 or window.b == 1:
        return DEG_DENSE if orientation is None else DEG_UNIT
    if weight is not None:
        return FULL
    return REGULAR if orientation == REGULAR else FLIPPED


def build_leaf_gadgets(
    grid: HananGrid,
    center: TerminalPair,
    leaves: list[TerminalPair],
    simplified: bool,
) -> list[GadgetSpec]:
    """One gadget per neighbor whose box overlaps the center box on an edge.

    ``simplified=False`` swaps the compact gadgets of two-dimensional windows
    for FULL gadgets weighted by ``gamma``.
    """
    gadgets: list[GadgetSpec] = []
    for leaf in leaves:
        box = center.box.intersect(leaf.box)
        if box is None:
            continue
        window = grid.subgrid(box)
        weight = None if simplified else partial(gamma, leaf.orientation)
        style = gadget_style(window, leaf.orientation, weight)
        if style is not None:
            gadgets.append(GadgetSpec(leaf.id, window, style, weight))
    return gadgets


def reflect_instance(instance: list[TerminalPair]) -> list[TerminalPair]:
    """Mirror every pair across the x-axis (swaps regular and flipped)."""
    return MIRROR.pairs(instance)


def solve_star(
    instance: list[TerminalPair],
    simplified: bool = True,
    ig: Optional[IntersectionGraph] = None,
) -> GridNetwork:
    """Exact solver for instances whose intersection graph is a star.

    A flipped hub is solved in the `MIRROR` frame, where it is regular, and
    its paths are mapped back.  ``simplified=False`` swaps the compact
    per-orientation gadgets for the generic all-boundary-pairs construction
    (same answers, more arcs); it exists to cross-check the compact gadgets.
    """
    if ig is None:
        ig = build_intersection_graph(instance)
    pairs = ig.pairs
    center_idx = pick_center(pairs, ig)
    frame = MIRROR if pairs[center_idx].orientation == FLIPPED else IDENTITY
    fpairs = frame.pairs(pairs)
    grid = ig.grid
    frame_grid = grid if frame is IDENTITY else build_hanan_grid(fpairs)
    center = fpairs[center_idx]
    leaves = [p for k, p in enumerate(fpairs) if k != center_idx]
    gadgets = build_leaf_gadgets(frame_grid, center, leaves, simplified)
    dag = AuxDag(frame_grid, center, gadgets)
    best, crossings, waypoints = dag.witness(dag.forward())

    orientation_of = {p.id: p.orientation for p in fpairs}
    modes = [crossing_mode(orientation_of[c.pair_id], c) for c in crossings]
    constraints = {c.pair_id: shared_constraint(m, c) for c, m in zip(crossings, modes)}
    portions = [center_portion(mode, c) for c, mode in zip(crossings, modes)]

    center_pts = splice_center(waypoints, crossings, portions)
    paths: list[MPath] = []
    for pair, original in zip(fpairs, pairs):
        if pair.id == center.id:
            pts = center_pts
        else:
            pts = path_through_constraint(pair, constraints.get(pair.id))
        paths.append(MPath(pair.id, densify(grid, frame.path_back(original.s, pts))))
    expected = sum(p.distance for p in pairs) - best
    return GridNetwork.certified(pairs, paths, grid, expected)
