"""Tests for the reference tree dynamic program."""

import random

import pytest

from gmmn.errors import CapExceeded, CertificateFailed, WrongClass
from gmmn.geometry import Point, TerminalPair, build_hanan_grid
from gmmn.instance_graph import (
    EDGELESS,
    FOREST,
    STAR,
    TREE,
    build_intersection_graph,
)
from gmmn.oracle import solve_bruteforce
from gmmn.star_dag import solve_star
from gmmn.tree_dp import (
    EPSILON,
    InOutPair,
    compute_dp_cell,
    enumerate_inout_pairs,
    prepare_tree,
    reference_table,
    solve_tree,
)


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


CHAIN3 = [((0, 0), (6, 6)), ((4, 4), (10, 10)), ((8, 8), (14, 14))]
CHAIN4 = CHAIN3 + [((12, 12), (18, 18))]


class TestInOutPair:
    def test_make_canonicalizes(self):
        a, b = Point(3, 1), Point(0, 5)
        assert InOutPair.make(a, b) == InOutPair.make(b, a)
        assert InOutPair.make(a, b).p == Point(0, 5)

    def test_epsilon_and_point(self):
        assert EPSILON.is_epsilon and not EPSILON.is_point
        one = InOutPair.make(Point(1, 1), Point(1, 1))
        assert one.is_point and not one.is_epsilon


class TestEnumerateInOutPairs:
    def test_single_vertex_window(self):
        inst = make([((0, 0), (4, 4)), ((4, 4), (8, 8)), ((0, 6), (2, 8))])
        grid = build_hanan_grid(inst)
        keys = enumerate_inout_pairs(inst[0], inst[1], grid)
        assert keys == [EPSILON, InOutPair.make(Point(4, 4), Point(4, 4))]

    def test_disjoint_boxes_rejected(self):
        inst = make([((0, 0), (1, 1)), ((5, 5), (6, 6))])
        grid = build_hanan_grid(inst)
        with pytest.raises(WrongClass):
            enumerate_inout_pairs(inst[0], inst[1], grid)

    def test_every_key_uses_boundary_vertices(self):
        inst = make(CHAIN4)
        grid = build_hanan_grid(inst)
        keys = enumerate_inout_pairs(inst[1], inst[2], grid)
        box = inst[1].box.intersect(inst[2].box)
        assert keys[0] is EPSILON
        for key in keys[1:]:
            for pt in (key.p, key.q):
                assert box.contains(pt)
                assert (
                    pt.x in (box.lo.x, box.hi.x) or pt.y in (box.lo.y, box.hi.y)
                )
        # Canonical keys are unique.
        assert len(set(keys)) == len(keys)


class TestDpTables:
    def test_three_chain_root_table(self):
        ctx = prepare_tree(make(CHAIN3))
        assert ctx.tables[ctx.tree.root][EPSILON] == 8

    def test_leaf_epsilon_cell_is_zero(self):
        ctx = prepare_tree(make(CHAIN3))
        for v in ctx.tree.postorder:
            if not ctx.children(v):
                assert compute_dp_cell(ctx, v, EPSILON) == 0

    def test_tables_are_monotone_in_the_crossing(self):
        ctx = prepare_tree(make(CHAIN4))
        for v, table in ctx.tables.items():
            eps = table[EPSILON]
            for key, value in table.items():
                assert value >= eps, (v, key)

    def test_cell_below_epsilon_fails_the_certificate(self):
        def broken(ctx, v):
            table = reference_table(ctx, v)
            if len(table) > 1:
                key = next(k for k in table if not k.is_epsilon)
                table[key] = table[EPSILON] - 1
            return table

        with pytest.raises(CertificateFailed, match="below epsilon"):
            prepare_tree(make(CHAIN3), None, broken)

    def test_leaf_crossing_cell_matches_distance(self):
        # Regular leaf; a corner-to-corner crossing lets it share everything.
        ctx = prepare_tree(make(CHAIN3))
        leaf = next(v for v in ctx.tree.postorder if not ctx.children(v))
        parent = ctx.tree.parent[leaf]
        box = ctx.pairs[leaf].box.intersect(ctx.pairs[parent].box)
        key = InOutPair.make(box.lo, box.hi)
        assert ctx.tables[leaf][key] == box.hi.x - box.lo.x + box.hi.y - box.lo.y


class TestFrozenOptima:
    def test_three_chain(self):
        assert solve_tree(make(CHAIN3)).total_length == 28

    def test_four_chain(self):
        inst = make(CHAIN4)
        assert build_intersection_graph(inst).class_tag == TREE
        assert solve_tree(inst).total_length == 36

    def test_forest_of_two_chains(self):
        shift = [((a[0] + 40, a[1]), (b[0] + 40, b[1])) for a, b in CHAIN3]
        inst = make(CHAIN3 + shift)
        assert build_intersection_graph(inst).class_tag == FOREST
        assert solve_tree(inst).total_length == 56

    def test_single_pair(self):
        assert solve_tree(make([((1, 2), (4, 0))])).total_length == 5

    def test_rejects_cyclic_graph(self):
        ring = make(
            [
                ((0, 0), (10, 1)),
                ((9, 0), (10, 10)),
                ((0, 9), (10, 10)),
                ((0, 0), (1, 10)),
            ]
        )
        with pytest.raises(WrongClass):
            solve_tree(ring)


def random_tree_instance(rng, n):
    """A chain/caterpillar of overlapping boxes with random orientations.

    Boxes march up the diagonal so only consecutive ones meet; occasionally
    a box hangs off the side of the chain instead of extending it.
    """
    specs = []
    x = y = 0
    spine = (0, 0)
    for _ in range(n):
        w = rng.randint(2, 4)
        h = rng.randint(2, 4)
        if specs and rng.random() < 0.3:
            # Branch: attach to the previous spine box from the side.
            sx, sy = spine
            lo = (sx + rng.randint(1, 2), sy - h)
            hi = (lo[0] + w, sy + rng.randint(0, 1))
        else:
            lo = (x, y)
            hi = (x + w, y + h)
            x = hi[0] - 1
            y = hi[1] - 1
            spine = (x, y)
        if rng.random() < 0.5:
            specs.append((lo, hi))
        else:
            specs.append(((lo[0], hi[1]), (hi[0], lo[1])))
    return make(specs)


class TestAgainstOracle:
    def test_random_trees_match_oracle(self):
        rng = random.Random(20250824)
        checked = by_class = 0
        tags = set()
        while checked < 60:
            inst = random_tree_instance(rng, rng.randint(2, 4))
            tag = build_intersection_graph(inst).class_tag
            if tag not in (TREE, STAR, FOREST, EDGELESS):
                continue
            tags.add(tag)
            try:
                want = solve_bruteforce(inst).total_length
            except CapExceeded:
                continue
            grid = build_hanan_grid(inst)
            net = solve_tree(inst)
            assert net.total_length == want, inst
            net.validate(grid)
            checked += 1
            by_class += tag == TREE
        assert TREE in tags and by_class >= 10

    def test_star_instances_agree_with_star_solver(self):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            inst = [
                TerminalPair.make(
                    i,
                    Point(rng.randint(0, 8), rng.randint(0, 8)),
                    Point(rng.randint(0, 8), rng.randint(0, 8)),
                )
                for i in range(n)
            ]
            if build_intersection_graph(inst).class_tag not in (STAR, EDGELESS):
                continue
            assert (
                solve_tree(inst).total_length
                == solve_star(inst).total_length
            )
            checked += 1

    def test_larger_chain_is_consistent(self):
        # No oracle here; check feasibility and the trivial bounds.
        inst = make(
            [((4 * k, 4 * k), (4 * k + 6, 4 * k + 6)) for k in range(12)]
        )
        assert build_intersection_graph(inst).class_tag == TREE
        net = solve_tree(inst)
        net.validate(build_hanan_grid(inst))
        total_d = sum(p.distance for p in inst)
        assert max(p.distance for p in inst) <= net.total_length <= total_d
