"""Intersection graph of pair bounding boxes, class recognition, and
rooted-tree / nice-tree-decomposition preparation.

Two pairs are adjacent iff their Hanan subgrids share a grid edge; boxes
touching only at a corner point are NOT adjacent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional

from .errors import NotATree, WidthCapExceeded
from .geometry import HananGrid, TerminalPair, build_hanan_grid

EDGELESS = "edgeless"
STAR = "star"
TREE = "tree"
CYCLE = "cycle"
TF_PSEUDOTREE = "triangle-free-pseudotree"
FOREST = "forest"
GENERAL = "general"
# The classes without a cycle: what the tree dp solves.
ACYCLIC = (EDGELESS, STAR, TREE, FOREST)


@dataclass(frozen=True)
class IntersectionGraph:
    """Vertex k is ``pairs[k]``, the k-th pair in id order (ids need not be 0..n-1)."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    class_tag: str
    pairs: tuple[TerminalPair, ...] = ()

    def vertex(self, pair_id: int) -> int:
        """The vertex of a pair id, by binary search over the id order."""
        k = bisect_left(self.pairs, pair_id, key=lambda p: p.id)
        if k == self.n or self.pairs[k].id != pair_id:
            raise KeyError(pair_id)
        return k

    @cached_property
    def grid(self) -> HananGrid:
        """The Hanan grid of ``pairs``, built on first use."""
        return build_hanan_grid(self.pairs)

    def induced(self, vertices: list[int]) -> IntersectionGraph:
        """The subgraph on ascending ``vertices``, renumbered in that order
        (the graph itself when ``vertices`` is every vertex)."""
        if len(vertices) == self.n:
            return self
        index = {v: k for k, v in enumerate(vertices)}
        adjacency = tuple(
            tuple(index[w] for w in self.adjacency[v] if w in index)
            for v in vertices
        )
        pairs = tuple(self.pairs[v] for v in vertices)
        return IntersectionGraph(
            len(pairs), adjacency, _classify(len(pairs), adjacency), pairs
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield u, v

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


def boxes_share_grid_edge(u: TerminalPair, v: TerminalPair) -> bool:
    """O(1) adjacency test via interval-overlap arithmetic.

    The intersection box has grid coordinates at its corners, so it contains
    a grid edge iff it has positive extent along some axis.
    """
    inter = u.box.intersect(v.box)
    if inter is None:
        return False
    return inter.lo.x < inter.hi.x or inter.lo.y < inter.hi.y


def build_intersection_graph(instance: list[TerminalPair]) -> IntersectionGraph:
    """The classified graph of an instance, its vertices in pair-id order;
    raises ValueError when two pairs share an id."""
    pairs = tuple(sorted(instance, key=lambda p: p.id))
    for a, b in zip(pairs, pairs[1:]):
        if a.id == b.id:
            raise ValueError(f"repeated pair id {a.id}")
    n = len(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in combinations(range(n), 2):
        if boxes_share_grid_edge(pairs[a], pairs[b]):
            adj[a].add(b)
            adj[b].add(a)
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    return IntersectionGraph(n, adjacency, _classify(n, adjacency), pairs)


def _classify(n: int, adjacency: tuple[tuple[int, ...], ...]) -> str:
    m = sum(len(a) for a in adjacency) // 2
    if m == 0:
        return EDGELESS
    comps = IntersectionGraph(n, adjacency, GENERAL).components()
    acyclic = m == n - len(comps)
    if acyclic:
        if len(comps) > 1:
            return FOREST
        degrees = [len(a) for a in adjacency]
        center_count = sum(1 for d in degrees if d == n - 1)
        if center_count >= 1 and all(d == 1 or d == n - 1 for d in degrees):
            return STAR
        return TREE
    if len(comps) == 1 and m == n:
        cycle = find_cycle(adjacency)
        if len(cycle) == 3:
            return GENERAL
        if all(len(a) == 2 for a in adjacency):
            return CYCLE
        return TF_PSEUDOTREE
    return GENERAL


def find_cycle(adjacency: tuple[tuple[int, ...], ...]) -> list[int]:
    """Vertices of the unique cycle of a unicyclic graph, in cycle order."""
    n = len(adjacency)
    degree = [len(a) for a in adjacency]
    removed = [False] * n
    queue = [v for v in range(n) if degree[v] <= 1]
    while queue:
        v = queue.pop()
        removed[v] = True
        for w in adjacency[v]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)
    cycle_vertices = [v for v in range(n) if not removed[v]]
    if not cycle_vertices:
        raise ValueError("graph has no cycle")
    # Walk around the cycle.
    start = cycle_vertices[0]
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = next(
            w for w in adjacency[cur] if not removed[w] and w != prev
        )
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return order


@dataclass(frozen=True)
class RootedTree:
    root: int
    parent: dict[int, Optional[int]]
    children: dict[int, tuple[int, ...]]
    preorder: tuple[int, ...]
    postorder: tuple[int, ...]


def root_tree(ig: IntersectionGraph) -> RootedTree:
    """Root a tree-classified intersection graph.

    For n >= 3 the root is a non-leaf; for a star the center is the root.
    """
    if ig.class_tag not in (STAR, TREE):
        raise NotATree(f"class is {ig.class_tag}, not a tree")
    vertices = range(ig.n)
    if ig.n >= 3:
        root = max(vertices, key=lambda v: (ig.degree(v), -v))
    else:
        root = 0
    parent: dict[int, Optional[int]] = {root: None}
    children: dict[int, list[int]] = {v: [] for v in vertices}
    preorder: list[int] = []
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        preorder.append(v)
        for w in sorted(ig.adjacency[v], reverse=True):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                children[v].append(w)
                stack.append(w)
    for v in children:
        children[v].sort()
    return RootedTree(
        root=root,
        parent=parent,
        children={v: tuple(c) for v, c in children.items()},
        preorder=tuple(preorder),
        postorder=tuple(reversed(preorder)),
    )


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class DecompNode:
    id: int
    kind: str
    bag: frozenset[int]
    children: tuple[int, ...]
    vertex: Optional[int] = None  # introduced/forgotten vertex


@dataclass(frozen=True)
class NiceTreeDecomposition:
    nodes: tuple[DecompNode, ...]
    root: int
    width: int

    def postorder(self) -> Iterator[DecompNode]:
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node_id, expanded = stack.pop()
            if expanded:
                yield self.nodes[node_id]
            else:
                stack.append((node_id, True))
                for c in self.nodes[node_id].children:
                    stack.append((c, False))

    def validate(self, ig: IntersectionGraph) -> None:
        """Check decomposition conditions plus niceness; raises on failure."""
        nodes = self.nodes
        covered: set[int] = set()
        for node in nodes:
            covered |= node.bag
        if covered != set(range(ig.n)):
            raise ValueError("not all pairs appear in a bag")
        bag_nodes: dict[int, list[int]] = {v: [] for v in range(ig.n)}
        for node in nodes:
            for v in node.bag:
                bag_nodes[v].append(node.id)
        for u, v in ig.edges():
            if not any(v in nodes[t].bag for t in bag_nodes[u]):
                raise ValueError(f"edge ({u},{v}) not inside any bag")
        # Connectivity of each vertex's bag-node set.
        parent_of: dict[int, int] = {}
        for node in nodes:
            for c in node.children:
                parent_of[c] = node.id
        for v, occ in bag_nodes.items():
            occ_set = set(occ)
            roots_in_occ = [t for t in occ if parent_of.get(t) not in occ_set]
            if len(roots_in_occ) != 1:
                raise ValueError(f"bags containing pair {v} are not connected")
        # Niceness.
        if nodes[self.root].bag:
            raise ValueError("root bag must be empty")
        forgotten: list[int] = []
        for node in nodes:
            kids = node.children
            if node.kind == LEAF:
                if kids or node.bag:
                    raise ValueError("leaf node must be empty with no children")
            elif node.kind == INTRODUCE:
                (c,) = kids
                if node.bag != nodes[c].bag | {node.vertex} or node.vertex in nodes[c].bag:
                    raise ValueError("introduce node bag mismatch")
            elif node.kind == FORGET:
                (c,) = kids
                if node.bag != nodes[c].bag - {node.vertex} or node.vertex not in nodes[c].bag:
                    raise ValueError("forget node bag mismatch")
                forgotten.append(node.vertex)
            elif node.kind == JOIN:
                c1, c2 = kids
                if nodes[c1].bag != node.bag or nodes[c2].bag != node.bag:
                    raise ValueError("join node bag mismatch")
            else:
                raise ValueError(f"unknown node kind {node.kind}")
        if sorted(forgotten) != sorted(set(forgotten)) or set(forgotten) != covered:
            raise ValueError("every pair must be forgotten exactly once")


def _reachable_through(
    adjacency: tuple[tuple[int, ...], ...], v: int, through: int
) -> list[int]:
    """Vertices outside the `through` mask reachable from v via masked ones."""
    seen = 1 << v
    stack = [v]
    out = []
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            bit = 1 << w
            if seen & bit:
                continue
            seen |= bit
            if through & bit:
                stack.append(w)
            else:
                out.append(w)
    return out


def _exact_elimination_order(adjacency: tuple[tuple[int, ...], ...]) -> list[int]:
    """Optimal elimination order by DP over subsets (n <= 12)."""
    n = len(adjacency)
    full = (1 << n) - 1
    best: dict[int, int] = {0: -1}

    def g(mask: int) -> int:
        if mask in best:
            return best[mask]
        value = n
        m = mask
        while m:
            bit = m & (-m)
            m ^= bit
            v = bit.bit_length() - 1
            cost = len(_reachable_through(adjacency, v, mask ^ bit))
            value = min(value, max(g(mask ^ bit), cost))
        best[mask] = value
        return value

    g(full)
    order_rev: list[int] = []
    mask = full
    while mask:
        target = best[mask]
        m = mask
        while m:
            bit = m & (-m)
            m ^= bit
            v = bit.bit_length() - 1
            cost = len(_reachable_through(adjacency, v, mask ^ bit))
            if max(best.get(mask ^ bit, g(mask ^ bit)), cost) == target:
                order_rev.append(v)
                mask ^= bit
                break
    return list(reversed(order_rev))


def _min_fill_order(adjacency: tuple[tuple[int, ...], ...]) -> list[int]:
    n = len(adjacency)
    adj = [set(a) for a in adjacency]
    remaining = set(range(n))
    order = []
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nb = adj[v] & remaining
            fill = sum(
                1
                for a, b in combinations(sorted(nb), 2)
                if b not in adj[a]
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nb = adj[best_v] & remaining
        for a, b in combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        remaining.discard(best_v)
        order.append(best_v)
    return order


def nice_tree_decomposition(
    ig: IntersectionGraph, width_cap: int = 10
) -> NiceTreeDecomposition:
    """Tree decomposition from an elimination order, converted to nice form.

    The order is optimal for n <= 12 and min-fill heuristic above that.
    """
    n = ig.n
    if n == 0:
        raise ValueError("empty instance")
    if n <= 12:
        order = _exact_elimination_order(ig.adjacency)
    else:
        order = _min_fill_order(ig.adjacency)

    elim_pos = {v: k for k, v in enumerate(order)}
    adj = [set(a) for a in ig.adjacency]
    bags: dict[int, frozenset[int]] = {}
    raw_parent: dict[int, Optional[int]] = {}
    width = 0
    for k, v in enumerate(order):
        nb = {w for w in adj[v] if elim_pos[w] > k}
        bags[v] = frozenset({v} | nb)
        width = max(width, len(nb))
        for a, b in combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        if nb:
            raw_parent[v] = min(nb, key=lambda w: elim_pos[w])
        elif k + 1 < n:
            raw_parent[v] = order[k + 1]
        else:
            raw_parent[v] = None
    if width > width_cap:
        raise WidthCapExceeded(f"width {width} exceeds cap {width_cap}")

    raw_children: dict[int, list[int]] = {v: [] for v in order}
    raw_root = order[-1]
    for v, p in raw_parent.items():
        if p is not None:
            raw_children[p].append(v)
    for v in raw_children:
        raw_children[v].sort()

    nodes: list[DecompNode] = []

    def add_node(kind: str, bag: frozenset[int], children: tuple[int, ...],
                 vertex: Optional[int] = None) -> int:
        nodes.append(DecompNode(len(nodes), kind, bag, children, vertex))
        return len(nodes) - 1

    def chain_to(bag_from: frozenset[int], node_from: int,
                 bag_to: frozenset[int]) -> int:
        """Forget/introduce chain transforming one bag into another."""
        cur_bag, cur = bag_from, node_from
        for v in sorted(bag_from - bag_to):
            cur_bag = cur_bag - {v}
            cur = add_node(FORGET, cur_bag, (cur,), v)
        for v in sorted(bag_to - bag_from):
            cur_bag = cur_bag | {v}
            cur = add_node(INTRODUCE, cur_bag, (cur,), v)
        return cur

    # Depth-first over the raw tree with an explicit stack: a vertex's
    # subtree is finished, and its chain to the parent's bag added, before
    # the parent's next child starts; the parent's joins come last.
    child_tops: dict[int, list[int]] = {raw_root: []}
    stack = [(raw_root, iter(raw_children[raw_root]))]
    while stack:
        raw_v, kids = stack[-1]
        c = next(kids, None)
        if c is not None:
            child_tops[c] = []
            stack.append((c, iter(raw_children[c])))
            continue
        stack.pop()
        bag = bags[raw_v]
        tops = child_tops.pop(raw_v)
        if not tops:
            top = chain_to(frozenset(), add_node(LEAF, frozenset(), ()), bag)
        else:
            top = tops[0]
            for other in tops[1:]:
                top = add_node(JOIN, bag, (top, other))
        if stack:
            parent = stack[-1][0]
            child_tops[parent].append(chain_to(bag, top, bags[parent]))
    root = chain_to(bags[raw_root], top, frozenset())
    return NiceTreeDecomposition(tuple(nodes), root, width)
