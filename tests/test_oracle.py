"""Tests for the brute-force reference solver.

The expected optimum values below were produced by running this oracle and
are frozen so regressions are caught.
"""

import itertools

import pytest

from gmmn.errors import CapExceeded
from gmmn.geometry import (
    GridNetwork,
    Point,
    TerminalPair,
    build_hanan_grid,
    enumerate_m_paths,
)
from gmmn.oracle import solve_bruteforce


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


class TestFrozenOptima:
    def test_nested_regular_pairs(self):
        # One regular pair inside another: the inner path rides the outer one.
        inst = make([((0, 0), (10, 10)), ((2, 2), (6, 6))])
        net = solve_bruteforce(inst)
        assert net.total_length == 20
        net.validate(build_hanan_grid(inst))

    def test_flipped_pair_inside_regular(self):
        # A flipped pair can share at most one axis extent with the outer path.
        inst = make([((0, 0), (10, 10)), ((2, 6), (6, 2))])
        net = solve_bruteforce(inst)
        assert net.total_length == 24

    def test_three_pair_chain(self):
        inst = make(
            [((0, 0), (6, 6)), ((4, 4), (10, 10)), ((8, 8), (14, 14))]
        )
        net = solve_bruteforce(inst)
        assert net.total_length == 28

    def test_single_pair(self):
        inst = make([((1, 2), (4, 0))])
        assert solve_bruteforce(inst).total_length == 5

    def test_coincident_terminals(self):
        inst = make([((3, 3), (3, 3)), ((0, 0), (5, 5))])
        assert solve_bruteforce(inst).total_length == 10

    def test_disjoint_pairs_sum_their_distances(self):
        inst = make([((0, 0), (2, 2)), ((10, 10), (13, 11))])
        assert solve_bruteforce(inst).total_length == 8


class TestBehavior:
    def test_result_paths_are_valid(self):
        inst = make([((0, 0), (5, 3)), ((1, 3), (4, 0)), ((2, 1), (3, 5))])
        grid = build_hanan_grid(inst)
        net = solve_bruteforce(inst)
        net.validate(grid)
        assert {p.pair_id for p in net.paths} == {0, 1, 2}

    def test_product_cap(self):
        inst = make([((0, 0), (9, 9)), ((1, 1), (8, 8)), ((2, 2), (7, 7))])
        with pytest.raises(CapExceeded):
            solve_bruteforce(inst, product_cap=10)


class TestTieBreak:
    # Crossing boxes with many optimal networks: the oracle must pick the
    # smallest tuple of path indices (in pair-id order) among the optima.
    INSTANCES = [
        [((0, 0), (3, 3)), ((1, 0), (2, 3)), ((0, 1), (3, 2))],
        [((0, 0), (4, 2)), ((1, 2), (3, 0)), ((2, 1), (4, 3))],
        [((0, 3), (3, 0)), ((1, 1), (2, 2)), ((0, 2), (3, 1))],
    ]

    @pytest.mark.parametrize("specs", INSTANCES)
    def test_smallest_index_tuple_among_the_optima(self, specs):
        inst = make(specs)
        grid = build_hanan_grid(inst)
        per_pair = [enumerate_m_paths(grid, p) for p in inst]
        lengths = {
            choice: GridNetwork.from_paths(
                inst, [paths[i] for paths, i in zip(per_pair, choice)]
            ).total_length
            for choice in itertools.product(*(range(len(ps)) for ps in per_pair))
        }
        optimum = min(lengths.values())
        optima = sorted(c for c, length in lengths.items() if length == optimum)
        assert len(optima) > 1, "the instance must have several optima"
        net = solve_bruteforce(inst)
        assert net.total_length == optimum
        assert list(net.paths) == [paths[i] for paths, i in zip(per_pair, optima[0])]
