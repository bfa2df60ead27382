"""Tests for intersection-graph construction, classification and
tree-decomposition utilities."""

import random

import pytest

import gmmn.instance_graph
from gmmn.errors import NotATree
from gmmn.geometry import Point, TerminalPair, build_hanan_grid
from gmmn.instance_graph import (
    CYCLE,
    EDGELESS,
    FORGET,
    FOREST,
    GENERAL,
    INTRODUCE,
    JOIN,
    LEAF,
    STAR,
    TF_PSEUDOTREE,
    TREE,
    DecompNode,
    IntersectionGraph,
    NiceTreeDecomposition,
    boxes_share_grid_edge,
    build_intersection_graph,
    find_cycle,
    nice_tree_decomposition,
    root_tree,
)


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


class TestEdgeRule:
    def test_overlapping_boxes_share_edge(self):
        inst = make([((0, 0), (4, 4)), ((2, 2), (6, 6))])
        assert boxes_share_grid_edge(inst[0], inst[1])

    def test_corner_contact_is_not_an_edge(self):
        inst = make([((0, 0), (2, 2)), ((2, 2), (4, 4))])
        assert not boxes_share_grid_edge(inst[0], inst[1])

    def test_side_contact_is_an_edge(self):
        inst = make([((0, 0), (2, 2)), ((2, 0), (4, 2))])
        assert boxes_share_grid_edge(inst[0], inst[1])

    def test_disjoint_boxes(self):
        inst = make([((0, 0), (1, 1)), ((5, 5), (6, 6))])
        assert not boxes_share_grid_edge(inst[0], inst[1])


class TestClassification:
    def test_edgeless(self):
        inst = make([((0, 0), (1, 1)), ((5, 5), (6, 6))])
        assert build_intersection_graph(inst).class_tag == EDGELESS

    def test_star(self):
        inst = make(
            [((0, 0), (20, 20)), ((1, 1), (3, 3)), ((10, 1), (13, 4))]
        )
        assert build_intersection_graph(inst).class_tag == STAR

    def test_three_chain_is_a_star(self):
        # A path on three vertices has a hub, so it classifies as a star.
        inst = make(
            [((0, 0), (6, 6)), ((4, 4), (10, 10)), ((8, 8), (14, 14))]
        )
        assert build_intersection_graph(inst).class_tag == STAR

    def test_four_chain_is_a_tree(self):
        inst = make(
            [
                ((0, 0), (6, 6)),
                ((4, 4), (10, 10)),
                ((8, 8), (14, 14)),
                ((12, 12), (18, 18)),
            ]
        )
        assert build_intersection_graph(inst).class_tag == TREE

    def test_forest(self):
        inst = make(
            [
                ((0, 0), (4, 4)),
                ((2, 2), (6, 6)),
                ((20, 0), (24, 4)),
                ((22, 2), (26, 6)),
            ]
        )
        assert build_intersection_graph(inst).class_tag == FOREST

    def test_square_cycle(self):
        # Four long boxes arranged in a ring; opposite sides never meet.
        inst = make(
            [
                ((0, 0), (10, 1)),
                ((9, 0), (10, 10)),
                ((0, 9), (10, 10)),
                ((0, 0), (1, 10)),
            ]
        )
        assert build_intersection_graph(inst).class_tag == CYCLE

    def test_pseudotree(self):
        inst = make(
            [
                ((0, 0), (10, 1)),
                ((9, 0), (10, 10)),
                ((0, 9), (10, 10)),
                ((0, 0), (1, 10)),
                ((4, 9), (6, 12)),  # branch hanging off the top of the ring
            ]
        )
        assert build_intersection_graph(inst).class_tag == TF_PSEUDOTREE

    def test_triangle_is_general(self):
        inst = make([((0, 0), (4, 4)), ((1, 1), (5, 5)), ((2, 2), (6, 6))])
        assert build_intersection_graph(inst).class_tag == GENERAL


class TestRootingAndCycles:
    def test_root_tree_prefers_max_degree(self):
        inst = make(
            [((0, 0), (20, 20)), ((1, 1), (3, 3)), ((10, 1), (13, 4))]
        )
        ig = build_intersection_graph(inst)
        rt = root_tree(ig)
        assert rt.root == 0
        assert sorted(rt.children[0]) == [1, 2]
        assert rt.parent[1] == 0 and rt.parent[2] == 0

    def test_root_tree_rejects_cycles(self):
        adjacency = [{1, 2}, {0, 2}, {0, 1}]
        ig = IntersectionGraph(3, adjacency, GENERAL)
        with pytest.raises(NotATree):
            root_tree(ig)

    def test_find_cycle(self):
        adjacency = ((1,), (0, 2, 4), (1, 3), (2, 4), (3, 1))
        cycle = find_cycle(adjacency)
        assert sorted(cycle) == [1, 2, 3, 4]
        # Consecutive cycle vertices are adjacent, including the wrap-around.
        m = len(cycle)
        for k in range(m):
            assert cycle[(k + 1) % m] in adjacency[cycle[k]]


class TestNiceDecomposition:
    def test_random_graphs_validate(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 9)
            adjacency = [set() for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.35:
                        adjacency[u].add(v)
                        adjacency[v].add(u)
            ig = IntersectionGraph(n, adjacency, GENERAL)
            dec = nice_tree_decomposition(ig, width_cap=8)
            dec.validate(ig)

    def test_tree_has_width_one(self):
        adjacency = [{1}, {0, 2}, {1, 3}, {2}]
        ig = IntersectionGraph(4, adjacency, TREE)
        dec = nice_tree_decomposition(ig, width_cap=3)
        dec.validate(ig)
        assert dec.width == 1


class TestGraphOfPairs:
    def test_repeated_id_is_rejected(self):
        inst = [
            TerminalPair.make(0, Point(0, 0), Point(4, 4)),
            TerminalPair.make(3, Point(2, 2), Point(6, 6)),
            TerminalPair.make(3, Point(10, 0), Point(12, 2)),
        ]
        with pytest.raises(ValueError, match="repeated pair id 3"):
            build_intersection_graph(inst)

    def test_grid_is_built_once_on_first_use(self, monkeypatch):
        calls = []

        def counting(pairs):
            calls.append(pairs)
            return build_hanan_grid(pairs)

        monkeypatch.setattr(gmmn.instance_graph, "build_hanan_grid", counting)
        inst = make([((0, 0), (4, 4)), ((2, 1), (3, 5))])
        ig = build_intersection_graph(inst)
        assert calls == []
        assert ig.grid is ig.grid
        assert ig.grid == build_hanan_grid(inst)
        assert len(calls) == 1

    def test_induced_on_every_vertex_is_the_graph_itself(self):
        inst = make([((0, 0), (4, 4)), ((2, 2), (6, 6)), ((20, 0), (24, 4))])
        ig = build_intersection_graph(inst)
        assert ig.induced([0, 1, 2]) is ig
        sub = ig.induced([0, 1])
        assert sub.pairs == ig.pairs[:2] and sub.class_tag == STAR


def decomposition(specs, root):
    """Nodes from (kind, bag, children, vertex) tuples, numbered in order."""
    nodes = tuple(
        DecompNode(k, kind, frozenset(bag), children, vertex)
        for k, (kind, bag, children, vertex) in enumerate(specs)
    )
    return NiceTreeDecomposition(nodes, root, max(len(n.bag) for n in nodes) - 1)


# One edge, 0 - 1: introduce 0, introduce 1, forget 0, forget 1.
EDGE = IntersectionGraph(2, ((1,), (0,)), TREE)
VALID = [
    (LEAF, (), (), None),
    (INTRODUCE, (0,), (0,), 0),
    (INTRODUCE, (0, 1), (1,), 1),
    (FORGET, (1,), (2,), 0),
    (FORGET, (), (3,), 1),
]


def replaced(k, spec):
    return VALID[:k] + [spec] + VALID[k + 1:]


class TestDecompositionValidation:
    def test_the_hand_built_decomposition_is_valid(self):
        decomposition(VALID, 4).validate(EDGE)

    @pytest.mark.parametrize("ig,specs,root,message", [
        (
            IntersectionGraph(3, ((1,), (0,), ()), FOREST), VALID, 4,
            "not all pairs appear in a bag",
        ),
        (
            EDGE,
            [
                (LEAF, (), (), None),
                (INTRODUCE, (0,), (0,), 0),
                (FORGET, (), (1,), 0),
                (INTRODUCE, (1,), (2,), 1),
                (FORGET, (), (3,), 1),
            ],
            4,
            r"edge \(0,1\) not inside any bag",
        ),
        (
            EDGE,
            VALID[:4] + [
                (INTRODUCE, (0, 1), (3,), 0),
                (FORGET, (1,), (4,), 0),
                (FORGET, (), (5,), 1),
            ],
            6,
            "bags containing pair 0 are not connected",
        ),
        (EDGE, VALID[:3], 2, "root bag must be empty"),
        (
            EDGE,
            [
                (LEAF, (0,), (), None),
                (INTRODUCE, (0, 1), (0,), 1),
                (FORGET, (1,), (1,), 0),
                (FORGET, (), (2,), 1),
            ],
            3,
            "leaf node must be empty",
        ),
        (EDGE, replaced(2, (INTRODUCE, (0, 1), (1,), 0)), 4, "introduce node bag mismatch"),
        (EDGE, replaced(3, (FORGET, (1,), (2,), 1)), 4, "forget node bag mismatch"),
        (
            EDGE,
            VALID[:3] + [
                (LEAF, (), (), None),
                (INTRODUCE, (0,), (3,), 0),
                (JOIN, (0, 1), (2, 4), None),
                (FORGET, (1,), (5,), 0),
                (FORGET, (), (6,), 1),
            ],
            7,
            "join node bag mismatch",
        ),
        (EDGE, replaced(1, ("grow", (0,), (0,), 0)), 4, "unknown node kind grow"),
        (
            # Two forget nodes share one child, so vertex 0's bags stay
            # connected while it is forgotten twice.
            IntersectionGraph(1, ((),), EDGELESS),
            [
                (LEAF, (), (), None),
                (INTRODUCE, (0,), (0,), 0),
                (FORGET, (), (1,), 0),
                (FORGET, (), (1,), 0),
                (JOIN, (), (2, 3), None),
            ],
            4,
            "every pair must be forgotten exactly once",
        ),
    ], ids=[
        "vertex-in-no-bag", "edge-in-no-bag", "bags-not-connected", "root-bag",
        "leaf", "introduce", "forget", "join", "unknown-kind", "forgotten-twice",
    ])
    def test_each_failure_is_reported(self, ig, specs, root, message):
        with pytest.raises(ValueError, match=message):
            decomposition(specs, root).validate(ig)
