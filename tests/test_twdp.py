"""Tests for the tree-decomposition dynamic program."""

import random

import pytest

from gmmn.errors import CandidateCapExceeded, CapExceeded
from gmmn.geometry import (
    DEGENERATE,
    Point,
    TerminalPair,
    build_hanan_grid,
)
from gmmn.instance_graph import (
    GENERAL,
    build_intersection_graph,
    nice_tree_decomposition,
)
from gmmn.oracle import solve_bruteforce
from gmmn.tree_dp_fast import solve_tree_fast
from gmmn.twdp import TwdpTable, candidate_mpaths, solve_twdp, twdp_node


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


class TestCandidates:
    def test_isolated_pair_has_two_l_paths(self):
        inst = make([((0, 0), (3, 2)), ((10, 10), (12, 11))])
        cands = candidate_mpaths(inst, 0)
        assert len(cands) == 2
        # The coarse grid is 2x2, so the paths turn only at the corners.
        corners = {c.vertices[1] for c in cands}
        assert corners == {Point(3, 0), Point(0, 2)}

    def test_degenerate_pair_has_one_candidate(self):
        inst = make([((0, 0), (0, 5)), ((0, 2), (4, 3))])
        cands = candidate_mpaths(inst, 0)
        assert len(cands) == 1
        assert inst[0].orientation == DEGENERATE

    def test_single_small_window_bound(self):
        # One neighbor overlapping in a unit square: the coarse grid gains at
        # most two coordinates per axis, so at most C(6, 3) staircases.
        inst = make([((0, 0), (6, 6)), ((5, 5), (9, 9))])
        cands = candidate_mpaths(inst, 0)
        assert len(cands) <= 20

    def test_candidates_are_valid_dense_paths(self):
        inst = make([((0, 0), (4, 4)), ((2, 2), (6, 6))])
        grid = build_hanan_grid(inst)
        for pid in (0, 1):
            for cand in candidate_mpaths(inst, pid):
                assert cand.vertices[0] == inst[pid].s
                assert cand.vertices[-1] == inst[pid].t
                for a, b in zip(cand.vertices, cand.vertices[1:]):
                    assert abs(grid.pos(a)[0] - grid.pos(b)[0]) + abs(
                        grid.pos(a)[1] - grid.pos(b)[1]
                    ) == 1

    def test_cap_is_enforced(self):
        inst = make([((0, 0), (8, 8)), ((1, 2), (7, 6))])
        with pytest.raises((CandidateCapExceeded, CapExceeded)):
            candidate_mpaths(inst, 0, cap=3)


class TestNodeRecursions:
    def setup_tables(self, inst):
        ig = build_intersection_graph(inst)
        cands = {p.id: candidate_mpaths(inst, p.id, ig=ig) for p in inst}
        from gmmn.geometry import path_edges

        edges = {
            pid: [frozenset(path_edges(m.vertices)) for m in cs]
            for pid, cs in cands.items()
        }
        dists = {p.id: p.distance for p in inst}
        return edges, dists

    def test_leaf_is_zero(self):
        inst = make([((0, 0), (2, 2))])
        decomp = nice_tree_decomposition(build_intersection_graph(inst))
        leaf = next(n for n in decomp.nodes if n.kind == "leaf")
        table = twdp_node(leaf, [], *self.setup_tables(inst))
        assert table.entries == {(): 0}

    def test_introduce_of_isolated_pair_adds_distance(self):
        inst = make([((0, 0), (2, 2)), ((10, 0), (13, 2))])
        edges, dists = self.setup_tables(inst)
        decomp = nice_tree_decomposition(build_intersection_graph(inst))
        intro = next(
            n for n in decomp.nodes if n.kind == "introduce" and len(n.bag) == 1
        )
        w = intro.vertex
        child = TwdpTable(-1, {(): 7})
        table = twdp_node(intro, [child], edges, dists)
        assert all(v == 7 + dists[w] for v in table.entries.values())

    def test_join_subtracts_the_bag_union(self):
        inst = make([((0, 0), (2, 2)), ((10, 0), (13, 2))])
        edges, dists = self.setup_tables(inst)

        class FakeNode:
            id = 99
            kind = "join"
            children = (0, 1)
            vertex = None

        key = ((0, 0),)
        bag_len = sum(
            __import__("gmmn.geometry", fromlist=["edge_length"]).edge_length(e)
            for e in edges[0][0]
        )
        t1 = TwdpTable(0, {key: 10})
        t2 = TwdpTable(1, {key: 12})
        table = twdp_node(FakeNode(), [t1, t2], edges, dists)
        assert table.entries == {key: 22 - bag_len}

    def test_monotone_in_child_values(self):
        # Inflating child entries never lowers any recomputed entry.
        inst = make([((0, 0), (4, 4)), ((2, 2), (6, 6))])
        edges, dists = self.setup_tables(inst)
        decomp = nice_tree_decomposition(build_intersection_graph(inst))
        tables = {}
        for node in decomp.postorder():
            tables[node.id] = twdp_node(
                node, [tables[c] for c in node.children], edges, dists
            )
        for node in decomp.postorder():
            if not node.children:
                continue
            bumped = [
                TwdpTable(c, {k: v + 3 for k, v in tables[c].entries.items()})
                for c in node.children
            ]
            redo = twdp_node(node, bumped, edges, dists)
            for key, val in redo.entries.items():
                assert val >= tables[node.id].entries[key]


class TestSolve:
    def test_single_pair(self):
        assert solve_twdp(make([((1, 2), (4, 0))])).total_length == 5

    def test_edgeless_sums_distances(self):
        inst = make([((0, 0), (2, 2)), ((10, 0), (13, 2)), ((0, 10), (1, 14))])
        assert build_intersection_graph(inst).class_tag == "edgeless"
        assert solve_twdp(inst).total_length == sum(p.distance for p in inst)

    def test_trees_match_the_tree_solver(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            n = rng.randint(2, 6)
            inst = [
                TerminalPair.make(
                    i,
                    Point(rng.randint(0, 6), rng.randint(0, 6)),
                    Point(rng.randint(0, 6), rng.randint(0, 6)),
                )
                for i in range(n)
            ]
            ig = build_intersection_graph(inst)
            if ig.class_tag not in ("tree", "star", "forest") or ig.max_degree > 3:
                continue
            try:
                net = solve_twdp(inst)
            except CapExceeded:
                continue
            assert net.total_length == solve_tree_fast(inst).total_length, inst
            checked += 1

    def test_general_graphs_match_the_oracle(self):
        rng = random.Random(3)
        checked = 0
        general = 0
        while checked < 40:
            n = rng.randint(1, 4)
            inst = [
                TerminalPair.make(
                    i,
                    Point(rng.randint(0, 6), rng.randint(0, 6)),
                    Point(rng.randint(0, 6), rng.randint(0, 6)),
                )
                for i in range(n)
            ]
            try:
                want = solve_bruteforce(inst).total_length
                net = solve_twdp(inst)
            except CapExceeded:
                continue
            assert net.total_length == want, inst
            net.validate(build_hanan_grid(inst))
            general += build_intersection_graph(inst).class_tag == GENERAL
            checked += 1
        assert general >= 5


class TestEntryCap:
    # Bags {0, 1, 2} with 20, 20 and 10 candidates: the largest table holds
    # 4000 entries, while every single pair stays far below the cap.
    INST = make([((0, 0), (4, 4)), ((2, 2), (6, 6)), ((3, 0), (7, 3))])

    def test_tables_hold_the_product_of_their_bags_candidate_counts(self, monkeypatch):
        import gmmn.twdp as twdp

        counts = [len(candidate_mpaths(self.INST, p.id)) for p in self.INST]
        sizes = []

        def recording(node, *args):
            table = original(node, *args)
            sizes.append((node.bag, len(table.entries)))
            return table

        original = twdp.twdp_node
        monkeypatch.setattr(twdp, "twdp_node", recording)
        solve_twdp(self.INST, entry_cap=4000)
        assert sizes
        for bag, size in sizes:
            want = 1
            for v in bag:
                want *= counts[v]
            assert size == want
        assert max(size for _, size in sizes) == 4000

    def test_cap_is_checked_before_any_table_is_filled(self, monkeypatch):
        import gmmn.twdp as twdp

        filled = []
        monkeypatch.setattr(
            twdp, "twdp_node", lambda *args: filled.append(args) or None
        )
        with pytest.raises(CandidateCapExceeded, match="4000 entries"):
            solve_twdp(self.INST, entry_cap=3999)
        assert filled == []

    def test_cap_is_checked_from_counts_before_any_enumeration(self, monkeypatch):
        # A hub with 184 756 staircases on its coarse grid, in a bag with a
        # neighbour of 10: the largest table would hold 1 847 560 entries.
        import gmmn.twdp as twdp

        hub = make([
            ((0, 0), (20, 20)), ((2, 2), (6, 6)), ((8, 12), (12, 8)),
            ((14, 3), (17, 3)), ((15, 14), (19, 18)), ((-3, 5), (3, 9)),
        ])
        enumerated = []

        def recording(*args, **kwargs):
            enumerated.append(args)
            raise AssertionError("a candidate was enumerated before the cap check")

        monkeypatch.setattr(twdp, "enumerate_m_paths", recording)
        with pytest.raises(CandidateCapExceeded, match="1847560 entries"):
            solve_twdp(hub)
        assert enumerated == []
