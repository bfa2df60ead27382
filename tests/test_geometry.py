"""Tests for the geometric primitives."""

import math

import pytest

from gmmn.errors import CapExceeded, CertificateFailed
from gmmn.geometry import (
    DEGENERATE,
    FLIPPED,
    REGULAR,
    GridNetwork,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    count_m_paths,
    densify,
    dominates,
    enumerate_m_paths,
    join,
    manhattan_distance,
    meet,
    validate_mpath,
)


def P(x, y):
    return Point(x, y)


class TestTerminalPair:
    def test_normalization_orders_lexicographically(self):
        pair = TerminalPair.make(0, P(5, 1), P(2, 3))
        assert pair.s == P(2, 3)
        assert pair.t == P(5, 1)

    def test_orientations(self):
        assert TerminalPair.make(0, P(0, 0), P(2, 3)).orientation == REGULAR
        assert TerminalPair.make(0, P(0, 3), P(2, 0)).orientation == FLIPPED
        assert TerminalPair.make(0, P(0, 0), P(2, 0)).orientation == DEGENERATE
        assert TerminalPair.make(0, P(1, 0), P(1, 5)).orientation == DEGENERATE
        assert TerminalPair.make(0, P(1, 1), P(1, 1)).orientation == DEGENERATE

    def test_distance_and_box(self):
        pair = TerminalPair.make(3, P(1, 5), P(4, 2))
        assert pair.distance == 6
        box = pair.box
        assert box.lo == P(1, 2)
        assert box.hi == P(4, 5)
        assert box.contains(P(2, 3))
        assert not box.contains(P(0, 3))


class TestPrimitives:
    def test_manhattan(self):
        assert manhattan_distance(P(1, 2), P(4, 6)) == 7

    def test_meet_join_dominates(self):
        assert meet(P(1, 5), P(3, 2)) == P(1, 2)
        assert join(P(1, 5), P(3, 2)) == P(3, 5)
        assert dominates(P(1, 2), P(1, 2))
        assert dominates(P(1, 2), P(3, 2))
        assert not dominates(P(3, 2), P(1, 5))


class TestHananGrid:
    def test_vertex_pos_roundtrip(self):
        pairs = [
            TerminalPair.make(0, P(0, 0), P(4, 4)),
            TerminalPair.make(1, P(2, 1), P(3, 5)),
        ]
        grid = build_hanan_grid(pairs)
        assert tuple(grid.xs) == (0, 2, 3, 4)
        assert tuple(grid.ys) == (0, 1, 4, 5)
        for i in range(len(grid.ys)):
            for j in range(len(grid.xs)):
                assert grid.pos(grid.vertex(i, j)) == (i, j)

    def test_subgrid(self):
        pairs = [
            TerminalPair.make(0, P(0, 0), P(4, 4)),
            TerminalPair.make(1, P(2, 1), P(3, 5)),
        ]
        grid = build_hanan_grid(pairs)
        w = grid.subgrid(pairs[1].box)
        assert (w.a, w.b) == (3, 2)
        assert w.vertex_count == 6


class TestMPathEnumeration:
    def test_count_matches_binomial(self):
        pair = TerminalPair.make(0, P(0, 0), P(3, 2))
        fillers = [
            TerminalPair.make(1, P(1, 1), P(1, 1)),
            TerminalPair.make(2, P(2, 2), P(2, 2)),
        ]
        # Dense 4x3 grid inside the box: C(3+2, 2) monotone paths.
        grid = build_hanan_grid([pair] + fillers)
        assert count_m_paths(grid, pair) == math.comb(5, 2)
        paths = enumerate_m_paths(grid, pair)
        assert len(paths) == math.comb(5, 2)

    def test_all_enumerated_paths_validate(self):
        pair = TerminalPair.make(0, P(0, 3), P(3, 0))
        fillers = [
            TerminalPair.make(1, P(1, 1), P(1, 1)),
            TerminalPair.make(2, P(2, 2), P(2, 2)),
        ]
        grid = build_hanan_grid([pair] + fillers)
        paths = enumerate_m_paths(grid, pair)
        assert len(paths) == math.comb(6, 3)
        for path in paths:
            validate_mpath(grid, pair, path)
            assert path.length == pair.distance

    def test_degenerate_pair_has_one_path(self):
        pair = TerminalPair.make(0, P(0, 0), P(0, 4))
        grid = build_hanan_grid([pair])
        paths = enumerate_m_paths(grid, pair)
        assert len(paths) == 1

    def test_cap(self):
        pair = TerminalPair.make(0, P(0, 0), P(30, 30))
        extra = [
            TerminalPair.make(i + 1, P(i, i), P(i + 1, i + 1)) for i in range(29)
        ]
        grid = build_hanan_grid([pair] + extra)
        with pytest.raises(CapExceeded):
            enumerate_m_paths(grid, pair, cap=1000)


class TestValidateAndDensify:
    def test_densify_straightens_waypoints(self):
        pair = TerminalPair.make(0, P(0, 0), P(3, 2))
        grid = build_hanan_grid(
            [pair, TerminalPair.make(1, P(1, 1), P(2, 2))]
        )
        verts = densify(grid, [P(0, 0), P(3, 0), P(3, 2)])
        path = MPath(0, verts)
        validate_mpath(grid, pair, path)

    def test_validate_rejects_wrong_endpoint(self):
        pair = TerminalPair.make(0, P(0, 0), P(2, 2))
        grid = build_hanan_grid([pair])
        bad = MPath(0, (P(0, 0), P(2, 0)))
        with pytest.raises(ValueError):
            validate_mpath(grid, pair, bad)

    def test_validate_rejects_non_monotone(self):
        pair = TerminalPair.make(0, P(0, 0), P(2, 2))
        grid = build_hanan_grid(
            [pair, TerminalPair.make(1, P(1, 1), P(1, 1))]
        )
        verts = (P(0, 0), P(1, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(2, 2))
        with pytest.raises(ValueError):
            validate_mpath(grid, pair, MPath(0, verts))


class TestGridNetwork:
    def test_union_counts_shared_edges_once(self):
        pairs = [
            TerminalPair.make(0, P(0, 0), P(2, 0)),
            TerminalPair.make(1, P(1, 0), P(3, 0)),
        ]
        grid = build_hanan_grid(pairs)
        paths = [
            MPath(0, densify(grid, [P(0, 0), P(2, 0)])),
            MPath(1, densify(grid, [P(1, 0), P(3, 0)])),
        ]
        net = GridNetwork.from_paths(pairs, paths)
        assert net.total_length == 3
        net.validate(grid)

    def test_certified_checks_the_expected_length(self):
        pairs = [
            TerminalPair.make(0, P(0, 0), P(2, 0)),
            TerminalPair.make(1, P(1, 0), P(3, 0)),
        ]
        grid = build_hanan_grid(pairs)
        paths = [
            MPath(0, densify(grid, [P(0, 0), P(2, 0)])),
            MPath(1, densify(grid, [P(1, 0), P(3, 0)])),
        ]
        net = GridNetwork.certified(pairs, paths, grid, 3)
        assert net == GridNetwork.from_paths(pairs, paths)
        with pytest.raises(CertificateFailed, match="differs from the certified 4"):
            GridNetwork.certified(pairs, paths, grid, 4)

    def test_certified_validates_the_paths(self):
        pairs = [TerminalPair.make(0, P(0, 0), P(2, 1))]
        grid = build_hanan_grid(pairs)
        with pytest.raises(ValueError):
            GridNetwork.certified(pairs, [MPath(0, (P(0, 0), P(2, 1)))], grid, 3)
