"""Tests for the auxiliary longest-path DAG and the star solver."""

import random

import pytest

from gmmn.errors import CapExceeded, CertificateFailed, Unreachable, WrongClass
from gmmn.geometry import (
    Point,
    SubgridWindow,
    TerminalPair,
    build_hanan_grid,
    dominates,
)
from gmmn.instance_graph import EDGELESS, STAR, build_intersection_graph
from gmmn.oracle import solve_bruteforce
from gmmn.star_dag import (
    FULL,
    NEG,
    AuxDag,
    Crossing,
    build_leaf_gadgets,
    crossing_mode,
    gamma,
    solve_star,
)


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


class TestGamma:
    def test_regular_shares_full_distance(self):
        assert gamma("regular", Point(0, 0), Point(3, 5)) == 8

    def test_flipped_shares_one_axis(self):
        assert gamma("flipped", Point(0, 0), Point(3, 5)) == 5
        assert gamma("flipped", Point(0, 0), Point(5, 3)) == 5

    def test_degenerate_is_additive(self):
        assert gamma("degenerate", Point(0, 0), Point(4, 0)) == 4


class TestCrossingMode:
    def test_claims_must_match_the_route(self):
        p, q = Point(0, 0), Point(2, 3)
        assert crossing_mode("regular", Crossing(0, 1, p, q, 5, None)) == "reg"
        assert crossing_mode("flipped", Crossing(0, 1, p, q, 3, None)) == "v"
        for orientation, claimed in (("regular", 4), ("flipped", 5)):
            with pytest.raises(CertificateFailed):
                crossing_mode(orientation, Crossing(0, 1, p, q, claimed, None))


def interior(w):
    v_ll, v_ur = AuxDag._boundary_lists(w)
    return set(w.positions()) - set(v_ll) - set(v_ur)


class TestBoundarySets:
    def test_three_by_three_window(self):
        v_ll, v_ur = AuxDag._boundary_lists(SubgridWindow(0, 2, 0, 2))
        assert len(v_ll) == len(set(v_ll)) == 5
        assert len(v_ur) == len(set(v_ur)) == 5
        assert set(v_ll) & set(v_ur) == {(2, 0), (0, 2)}
        assert interior(SubgridWindow(0, 2, 0, 2)) == {(1, 1)}

    def test_partition_covers_window(self):
        w = SubgridWindow(0, 3, 0, 4)
        v_ll, v_ur = AuxDag._boundary_lists(w)
        everything = set(v_ll) | set(v_ur) | interior(w)
        assert everything == set(w.positions())
        assert len(interior(w)) == 2 * 3


def build_star_dag(inst, simplified=True):
    pairs = sorted(inst, key=lambda p: p.id)
    grid = build_hanan_grid(pairs)
    center = pairs[0]
    gadgets = build_leaf_gadgets(grid, center, pairs[1:], simplified)
    return AuxDag(grid, center, gadgets)


SAMPLE = [
    ((0, 0), (20, 20)),
    ((2, 2), (6, 6)),
    ((8, 12), (12, 8)),
    ((14, 3), (17, 3)),
    ((15, 14), (19, 18)),
]


class TestDagStructure:
    @pytest.mark.parametrize("simplified", [True, False])
    def test_acyclic_every_arc_advances(self, simplified):
        dag = build_star_dag(make(SAMPLE), simplified)
        index = dag.topo_index()
        arcs = 0
        for src, dst, length, _kind in dag.iter_arcs():
            assert index[src] < index[dst]
            assert length >= 0
            arcs += 1
        assert arcs > 0

    @pytest.mark.parametrize("simplified", [True, False])
    def test_node_count_is_linear_in_window(self, simplified):
        dag = build_star_dag(make(SAMPLE), simplified)
        assert dag.node_count <= 6 * dag.cw.vertex_count

    def test_interior_positions_are_dead(self):
        # Extra point terminals densify the grid inside the leaf window.
        inst = make(
            [
                ((0, 0), (10, 10)),
                ((2, 2), (8, 8)),
                ((4, 12), (6, 14)),
                ((12, 4), (14, 6)),
            ]
        )
        dag = build_star_dag(inst)
        w = dag.grid.subgrid(inst[1].box)
        assert len(interior(w)) == 4
        for i, j in interior(w):
            assert dag._rel(i, j) in dag.dead


class TestLongestPath:
    CENTER = TerminalPair.make(0, Point(0, 0), Point(10, 10))

    def leaf_dag(self, leaves, simplified=True):
        grid = build_hanan_grid([self.CENTER] + leaves)
        gadgets = build_leaf_gadgets(grid, self.CENTER, leaves, simplified)
        return AuxDag(grid, self.CENTER, gadgets)

    def test_zero_leaves_value_zero(self):
        dag = self.leaf_dag([])
        lam = dag.forward()
        value, crossings, _ = dag.witness(lam)
        assert value == dag.best_value(lam) == 0
        assert crossings == []

    def test_regular_leaf_shares_its_distance(self):
        leaf = TerminalPair.make(1, Point(2, 2), Point(6, 6))
        dag = self.leaf_dag([leaf])
        assert dag.best_value(dag.forward()) == leaf.distance

    def test_flipped_leaf_shares_one_axis(self):
        leaf = TerminalPair.make(1, Point(2, 6), Point(6, 2))
        dag = self.leaf_dag([leaf])
        assert dag.best_value(dag.forward()) == 4

    def test_custom_assigner_matches_compact_gadget(self):
        leaf = TerminalPair.make(1, Point(2, 6), Point(6, 2))
        dag = self.leaf_dag([leaf], simplified=False)
        (spec,) = dag.gadgets
        assert spec.style == FULL
        p, q = Point(2, 2), Point(6, 5)
        assert spec.weight(p, q) == gamma(leaf.orientation, p, q)
        assert dag.best_value(dag.forward()) == 4

    def test_arcs_form_a_connected_witness(self):
        leaf = TerminalPair.make(1, Point(2, 2), Point(6, 6))
        dag = self.leaf_dag([leaf])
        value, crossings, waypoints = dag.witness(dag.forward())
        assert waypoints[0] == dag.node_point(dag.source_pos) == self.CENTER.s
        assert waypoints[-1] == dag.node_point(dag.sink_pos) == self.CENTER.t
        assert sum(c.claimed for c in crossings) == value
        for a, b in zip(waypoints, waypoints[1:]):
            assert a != b and dominates(a, b)
        for c in crossings:
            k = waypoints.index(c.entry)
            assert waypoints[k + 1] == c.exit

    def test_unreachable_is_sentinel(self):
        dag = self.leaf_dag([])
        sink, source = frozenset({dag.sink_pos}), frozenset({dag.source_pos})
        lam = dag.forward(sink)
        assert lam[dag.source_pos] == NEG
        with pytest.raises(Unreachable):
            dag.witness(lam, seeds=sink, ends=source)

    def test_same_node_is_zero(self):
        dag = self.leaf_dag([])
        source = frozenset({dag.source_pos})
        lam = dag.forward(source)
        assert lam[dag.source_pos] == 0
        assert dag.witness(lam, seeds=source, ends=source) == (
            0, [], [self.CENTER.s],
        )


class TestFrozenStarOptima:
    def test_nested_regular_pairs(self):
        inst = make([((0, 0), (10, 10)), ((2, 2), (6, 6))])
        assert solve_star(inst).total_length == 20

    def test_flipped_pair_inside_regular(self):
        inst = make([((0, 0), (10, 10)), ((2, 6), (6, 2))])
        assert solve_star(inst).total_length == 24
        assert solve_star(inst, simplified=False).total_length == 24

    def test_flipped_center_is_reflected(self):
        inst = make([((0, 10), (10, 0)), ((2, 2), (6, 6))])
        assert (
            solve_star(inst).total_length
            == solve_bruteforce(inst).total_length
        )

    def test_single_pair(self):
        inst = make([((1, 2), (4, 0))])
        net = solve_star(inst)
        assert net.total_length == 5

    def test_rejects_non_star(self):
        inst = make(
            [
                ((0, 0), (6, 6)),
                ((4, 4), (10, 10)),
                ((8, 8), (14, 14)),
                ((12, 12), (18, 18)),
            ]
        )
        with pytest.raises(WrongClass):
            solve_star(inst)


class TestAgainstOracle:
    def _random_instances(self, seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            n = rng.randint(1, 4)
            pairs = [
                TerminalPair.make(
                    i,
                    Point(rng.randint(0, 8), rng.randint(0, 8)),
                    Point(rng.randint(0, 8), rng.randint(0, 8)),
                )
                for i in range(n)
            ]
            if build_intersection_graph(pairs).class_tag in (STAR, EDGELESS):
                out.append(pairs)
        return out

    def test_random_stars_match_oracle(self):
        for inst in self._random_instances(20250823, 120):
            try:
                want = solve_bruteforce(inst).total_length
            except CapExceeded:
                continue
            grid = build_hanan_grid(inst)
            for simplified in (True, False):
                net = solve_star(inst, simplified=simplified)
                assert net.total_length == want, (inst, simplified)
                net.validate(grid)
