"""Points, terminal pairs, Hanan grids, and Manhattan-path primitives.

All coordinates are integers and all lengths are exact integers, so every
comparison made by the solvers is an equality/ordering test on ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CapExceeded, CertificateFailed, OverflowRisk

REGULAR = "regular"
FLIPPED = "flipped"
DEGENERATE = "degenerate"

# Coordinate magnitude guard: with |coord| < 2^40 and < 2^20 pairs, any sum of
# pairwise distances stays far below 2^63.
MAX_ABS_COORD = 1 << 40
MAX_PAIRS = 1 << 20


class Point(NamedTuple):
    x: int
    y: int


def manhattan_distance(p: Point, q: Point) -> int:
    """L1 distance |p.x - q.x| + |p.y - q.y|."""
    return abs(p.x - q.x) + abs(p.y - q.y)


def dist_x(p: Point, q: Point) -> int:
    return abs(p.x - q.x)


def dist_y(p: Point, q: Point) -> int:
    return abs(p.y - q.y)


def meet(p: Point, q: Point) -> Point:
    """Componentwise minimum (the lower-left corner of the two points)."""
    return Point(min(p.x, q.x), min(p.y, q.y))


def join(p: Point, q: Point) -> Point:
    """Componentwise maximum (the upper-right corner of the two points)."""
    return Point(max(p.x, q.x), max(p.y, q.y))


def dominates(p: Point, q: Point) -> bool:
    """True iff p <= q componentwise."""
    return p.x <= q.x and p.y <= q.y


@dataclass(frozen=True, order=True)
class TerminalPair:
    """A terminal pair normalized so that s.x <= t.x."""

    id: int
    s: Point
    t: Point
    orientation: str

    @classmethod
    def make(cls, pair_id: int, a: Point, b: Point) -> "TerminalPair":
        a = Point(int(a[0]), int(a[1]))
        b = Point(int(b[0]), int(b[1]))
        if (a.x, a.y) > (b.x, b.y):
            a, b = b, a
        if a.x == b.x or a.y == b.y:
            orientation = DEGENERATE
        elif a.y <= b.y:
            orientation = REGULAR
        else:
            orientation = FLIPPED
        return cls(pair_id, a, b, orientation)

    @property
    def distance(self) -> int:
        return manhattan_distance(self.s, self.t)

    @property
    def box(self) -> "BoundingBox":
        return BoundingBox(meet(self.s, self.t), join(self.s, self.t))


@dataclass(frozen=True, order=True)
class BoundingBox:
    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if not dominates(self.lo, self.hi):
            raise ValueError(f"box corners out of order: {self.lo} {self.hi}")

    def contains(self, p: Point) -> bool:
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y

    def intersect(self, other: "BoundingBox") -> Optional["BoundingBox"]:
        lo = join(self.lo, other.lo)
        hi = meet(self.hi, other.hi)
        if lo.x > hi.x or lo.y > hi.y:
            return None
        return BoundingBox(lo, hi)

    @property
    def width(self) -> int:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> int:
        return self.hi.y - self.lo.y


@dataclass(frozen=True)
class SubgridWindow:
    """Contiguous index window [i_lo..i_hi] x [j_lo..j_hi] of a Hanan grid.

    Rows (i) index y-coordinates, columns (j) index x-coordinates; both
    bounds are inclusive.
    """

    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int

    @property
    def a(self) -> int:
        """Number of rows."""
        return self.i_hi - self.i_lo + 1

    @property
    def b(self) -> int:
        """Number of columns."""
        return self.j_hi - self.j_lo + 1

    @property
    def vertex_count(self) -> int:
        return self.a * self.b

    def positions(self) -> Iterator[tuple[int, int]]:
        for i in range(self.i_lo, self.i_hi + 1):
            for j in range(self.j_lo, self.j_hi + 1):
                yield i, j


@dataclass(frozen=True)
class HananGrid:
    """The grid induced by all terminal coordinates of an instance."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    x_index: dict[int, int] = field(repr=False, compare=False)
    y_index: dict[int, int] = field(repr=False, compare=False)

    @classmethod
    def from_coords(cls, xs: Iterable[int], ys: Iterable[int]) -> "HananGrid":
        """The grid of the distinct coordinates, sorted and indexed."""
        xs, ys = tuple(sorted(set(xs))), tuple(sorted(set(ys)))
        return cls(xs, ys, {x: j for j, x in enumerate(xs)}, {y: i for i, y in enumerate(ys)})

    def vertex(self, i: int, j: int) -> Point:
        """Coordinates of the grid vertex at row i, column j."""
        return Point(self.xs[j], self.ys[i])

    def pos(self, p: Point) -> tuple[int, int]:
        """Index position (i, j) of a point lying on the grid."""
        return self.y_index[p.y], self.x_index[p.x]

    def on_grid(self, p: Point) -> bool:
        return p.x in self.x_index and p.y in self.y_index

    def subgrid(self, box: BoundingBox) -> SubgridWindow:
        """Index window of all grid vertices inside `box`.

        Box corners are assumed to lie on grid coordinates, which holds for
        the bounding box of any pair of the instance.
        """
        return SubgridWindow(
            i_lo=self.y_index[box.lo.y],
            i_hi=self.y_index[box.hi.y],
            j_lo=self.x_index[box.lo.x],
            j_hi=self.x_index[box.hi.x],
        )


def build_hanan_grid(instance: Sequence[TerminalPair]) -> HananGrid:
    """Grid of all vertical/horizontal lines through terminal coordinates."""
    if not instance:
        raise ValueError("instance must contain at least one pair")
    if len(instance) > MAX_PAIRS:
        raise OverflowRisk(f"too many pairs: {len(instance)}")
    xs: set[int] = set()
    ys: set[int] = set()
    for pair in instance:
        for p in (pair.s, pair.t):
            if abs(p.x) >= MAX_ABS_COORD or abs(p.y) >= MAX_ABS_COORD:
                raise OverflowRisk(f"coordinate too large: {p}")
            xs.add(p.x)
            ys.add(p.y)
    return HananGrid.from_coords(xs, ys)


@dataclass(frozen=True)
class MPath:
    """A Manhattan path for one pair: a monotone staircase of grid vertices.

    Vertices run from s to t and consecutive vertices are grid-adjacent
    (no intermediate grid coordinate between them).
    """

    pair_id: int
    vertices: tuple[Point, ...]

    @property
    def length(self) -> int:
        return path_length(self.vertices)

    def edges(self) -> frozenset[tuple[Point, Point]]:
        return frozenset(path_edges(self.vertices))


def path_length(vertices: tuple[Point, ...]) -> int:
    return sum(
        manhattan_distance(a, b) for a, b in zip(vertices, vertices[1:])
    )


def canonical_edge(p: Point, q: Point) -> tuple[Point, Point]:
    return (p, q) if p <= q else (q, p)


def edge_length(edge: tuple[Point, Point]) -> int:
    return manhattan_distance(edge[0], edge[1])


def path_edges(vertices: tuple[Point, ...]) -> Iterator[tuple[Point, Point]]:
    for a, b in zip(vertices, vertices[1:]):
        yield canonical_edge(a, b)


def densify(grid: HananGrid, waypoints: list[Point]) -> tuple[Point, ...]:
    """Expand a waypoint polyline into unit grid steps, dropping repeats.

    Each segment must be axis-aligned with both endpoints on the grid.
    """
    out: list[Point] = []
    for k, p in enumerate(waypoints):
        if k == 0:
            out.append(p)
            continue
        prev = out[-1]
        if p == prev:
            continue
        if p.x == prev.x:
            j = grid.x_index[p.x]
            i0, i1 = grid.y_index[prev.y], grid.y_index[p.y]
            step = 1 if i1 > i0 else -1
            for i in range(i0 + step, i1 + step, step):
                out.append(grid.vertex(i, j))
        elif p.y == prev.y:
            i = grid.y_index[p.y]
            j0, j1 = grid.x_index[prev.x], grid.x_index[p.x]
            step = 1 if j1 > j0 else -1
            for j in range(j0 + step, j1 + step, step):
                out.append(grid.vertex(i, j))
        else:
            raise ValueError(f"segment not axis-aligned: {prev} -> {p}")
    return tuple(out)


def validate_mpath(grid: HananGrid, pair: TerminalPair, mpath: MPath) -> None:
    """Check every MPath invariant; raises ValueError on the first failure."""
    vs = mpath.vertices
    if mpath.pair_id != pair.id:
        raise ValueError("path/pair id mismatch")
    if not vs:
        raise ValueError("empty path")
    if vs[0] != pair.s or vs[-1] != pair.t:
        raise ValueError("path endpoints do not match the pair terminals")
    box = pair.box
    for p in vs:
        if not grid.on_grid(p):
            raise ValueError(f"vertex {p} not on the grid")
        if not box.contains(p):
            raise ValueError(f"vertex {p} outside the pair's box")
    for a, b in zip(vs, vs[1:]):
        ia, ja = grid.pos(a)
        ib, jb = grid.pos(b)
        if abs(ia - ib) + abs(ja - jb) != 1:
            raise ValueError(f"step {a} -> {b} is not grid-adjacent")
        if b.x < a.x:
            raise ValueError("x-coordinates must be non-decreasing")
        if pair.orientation == REGULAR and b.y < a.y:
            raise ValueError("regular pair requires non-decreasing y")
        if pair.orientation == FLIPPED and b.y > a.y:
            raise ValueError("flipped pair requires non-increasing y")
    if path_length(vs) != pair.distance:
        raise ValueError("path length differs from the pair distance")


def count_m_paths(grid: HananGrid, pair: TerminalPair) -> int:
    """Closed-form staircase count for the pair's subgrid window."""
    window = grid.subgrid(pair.box)
    return comb((window.a - 1) + (window.b - 1), window.a - 1)


def enumerate_m_paths(
    grid: HananGrid, pair: TerminalPair, cap: int = 1_000_000
) -> list[MPath]:
    """All monotone staircases from s to t, in lexicographic vertex order."""
    n_paths = count_m_paths(grid, pair)
    if n_paths > cap:
        raise CapExceeded(
            f"pair {pair.id} has {n_paths} M-paths, above the cap of {cap}"
        )
    si, sj = grid.pos(pair.s)
    ti, tj = grid.pos(pair.t)
    di = 1 if ti >= si else -1

    # Depth-first over (row, column, prefix length).  A vertical step keeps
    # x, so it is lexicographically before the horizontal one: push it last.
    results: list[MPath] = []
    prefix: list[Point] = []
    stack = [(si, sj, 0)]
    while stack:
        i, j, depth = stack.pop()
        del prefix[depth:]
        prefix.append(grid.vertex(i, j))
        if i == ti and j == tj:
            results.append(MPath(pair.id, tuple(prefix)))
            continue
        if j != tj:
            stack.append((i, j + 1, depth + 1))
        if i != ti:
            stack.append((i + di, j, depth + 1))
    return results


def reflect_y(p: Point) -> Point:
    return Point(p.x, -p.y)


def transpose(p: Point) -> Point:
    return Point(p.y, p.x)


def rotate(p: Point) -> Point:
    return Point(-p.x, -p.y)


@dataclass(frozen=True)
class Frame:
    """A coordinate frame: involutive point maps (`reflect_y`, `transpose`,
    `rotate`) applied in order.  A solver normalizes an instance with
    `pairs`, works in the frame and maps its paths back with `path_back`."""

    steps: tuple[Callable[[Point], Point], ...] = ()

    def fwd(self, p: Point) -> Point:
        for step in self.steps:
            p = step(p)
        return p

    def back(self, p: Point) -> Point:
        for step in reversed(self.steps):
            p = step(p)
        return p

    @property
    def inverse(self) -> "Frame":
        return Frame(self.steps[::-1])

    def pairs(self, pairs: list[TerminalPair]) -> list[TerminalPair]:
        """The pairs in this frame, renormalized (s.x <= t.x)."""
        return [TerminalPair.make(p.id, self.fwd(p.s), self.fwd(p.t)) for p in pairs]

    def path_back(self, start: Point, waypoints: Sequence[Point]) -> list[Point]:
        """Waypoints of a frame path mapped back to the original
        coordinates and oriented to run from ``start``."""
        out = [self.back(p) for p in waypoints]
        if out[0] != start:
            out.reverse()
        return out


IDENTITY = Frame()
MIRROR = Frame((reflect_y,))  # across the x-axis: swaps regular and flipped


@dataclass(frozen=True)
class GridNetwork:
    """A feasible solution: one M-path per pair plus the edge-set union."""

    pairs: tuple[TerminalPair, ...]
    paths: tuple[MPath, ...]
    union_edges: frozenset[tuple[Point, Point]]
    total_length: int

    @classmethod
    def from_paths(
        cls, pairs: list[TerminalPair], paths: list[MPath]
    ) -> "GridNetwork":
        union: set[tuple[Point, Point]] = set()
        for path in paths:
            union.update(path_edges(path.vertices))
        total = sum(edge_length(e) for e in union)
        return cls(tuple(pairs), tuple(paths), frozenset(union), total)

    @classmethod
    def certified(
        cls,
        pairs: list[TerminalPair],
        paths: list[MPath],
        grid: HananGrid,
        expected: int,
    ) -> "GridNetwork":
        """`from_paths`, validated on `grid`, whose union length must equal
        the `expected` length the solver proved; raises CertificateFailed."""
        network = cls.from_paths(pairs, paths)
        network.validate(grid)
        if network.total_length != expected:
            raise CertificateFailed(
                f"network length {network.total_length} differs from the"
                f" certified {expected}"
            )
        return network

    def validate(self, grid: HananGrid) -> None:
        """Re-check every M-path and the union-length bookkeeping."""
        by_id = {p.id: p for p in self.pairs}
        if len(self.paths) != len(self.pairs):
            raise ValueError("one path per pair required")
        union: set[tuple[Point, Point]] = set()
        for path in self.paths:
            validate_mpath(grid, by_id[path.pair_id], path)
            union.update(path_edges(path.vertices))
        if union != self.union_edges:
            raise ValueError("stored union differs from recomputed union")
        if sum(edge_length(e) for e in union) != self.total_length:
            raise ValueError("stored total differs from recomputed length")
