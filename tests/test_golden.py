"""Golden solution files: a fixed instance corpus per solver path, hashed.

Each case solves a seeded instance through `dispatch`, builds the solution
file with `wall_ms` fixed at 0 and compares the sha256 of its serialized
text with the value recorded here.  Any change to an emitted path, edge,
length, solver name or ratio changes a hash, so a refactor that keeps these
hashes keeps every solution file bit-identical.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and copy the printed table
into ``EXPECTED``.
"""

import hashlib
import random

import pytest

from gmmn.cli import dispatch, generate, serialize_solution, solution_from_network
from gmmn.geometry import FLIPPED, REGULAR, Point, TerminalPair
from gmmn.instance_graph import FOREST, build_intersection_graph, find_cycle
from gmmn.pseudotree import build_reduction_plan, cut_degenerate_cycle
from gmmn.star_dag import pick_center


def pairs_of(cls, n, r, seed):
    return list(generate(cls, n, r, seed).pairs)


def mirrored(pairs):
    """Top-to-bottom mirror image: swaps regular and flipped pairs."""
    top = max(max(p.s.y, p.t.y) for p in pairs)
    return [
        TerminalPair.make(p.id, Point(p.s.x, top - p.s.y), Point(p.t.x, top - p.t.y))
        for p in pairs
    ]


def shifted(pairs, dx, first_id):
    return [
        TerminalPair.make(first_id + k, Point(p.s.x + dx, p.s.y), Point(p.t.x + dx, p.t.y))
        for k, p in enumerate(pairs)
    ]


def hub_orientation(pairs):
    return sorted(pairs, key=lambda p: p.id)[pick_center(pairs)].orientation


def takes_cut(pairs):
    ig = build_intersection_graph(pairs)
    return cut_degenerate_cycle(pairs, find_cycle(ig.adjacency), ig) is not None


def diagonal_chain(seed, n):
    """Boxes marching up the diagonal, overlapping their neighbours in
    windows of a few grid lines, with random orientations."""
    rng = random.Random(seed)
    out, x, y = [], 0, 0
    for k in range(n):
        w, h = rng.randint(3, 5), rng.randint(3, 5)
        lo, hi = Point(x, y), Point(x + w, y + h)
        if rng.random() < 0.5:
            lo, hi = Point(lo.x, hi.y), Point(hi.x, lo.y)
        out.append(TerminalPair.make(k, lo, hi))
        x, y = x + w - rng.randint(1, 2), y + h - rng.randint(1, 2)
    return out


STAR = pairs_of("star", 20, 60, 2)
MIXED_STAR = [
    TerminalPair.make(k, Point(*a), Point(*b))
    for k, (a, b) in enumerate([
        ((0, 0), (20, 20)), ((2, 2), (6, 6)), ((8, 12), (12, 8)),
        ((14, 3), (17, 3)), ((15, 14), (19, 18)), ((-3, 8), (3, 11)),
    ])
]
CHAIN = diagonal_chain(11, 30)
TREE = pairs_of("tree", 40, 160, 1)
FOREST_PAIRS = pairs_of("tree", 8, 32, 3) + shifted(pairs_of("tree", 9, 36, 4), 100, 8)
DEGENERATE_RING = pairs_of("cycle", 10, 30, 1)
RING = pairs_of("cycle", 16, 48, 6)
PSEUDOTREE = pairs_of("pseudotree", 9, 40, 2)
GENERAL = pairs_of("general", 5, 10, 1)

# name -> (instance, algorithm, precondition on the instance)
CASES = {
    "star-regular-hub": (STAR, "auto", lambda p: hub_orientation(p) == REGULAR),
    "star-flipped-hub": (mirrored(STAR), "auto", lambda p: hub_orientation(p) == FLIPPED),
    "mixed-star": (MIXED_STAR, "auto", lambda p: hub_orientation(p) == REGULAR),
    "mixed-star-flipped": (
        mirrored(MIXED_STAR), "auto", lambda p: hub_orientation(p) == FLIPPED,
    ),
    "chain-fast": (CHAIN, "auto", lambda p: build_intersection_graph(p).class_tag == "tree"),
    "chain-reference": (CHAIN, "tree", lambda p: True),
    "caterpillar-fast": (TREE, "auto", lambda p: True),
    "caterpillar-reference": (TREE, "tree", lambda p: True),
    "forest": (
        FOREST_PAIRS, "auto",
        lambda p: build_intersection_graph(p).class_tag == FOREST,
    ),
    "degenerate-ring": (DEGENERATE_RING, "auto", takes_cut),
    "passage-triple-ring": (
        RING, "auto",
        lambda p: not takes_cut(p) and len(build_reduction_plan(p).triples) > 0,
    ),
    "pseudotree": (PSEUDOTREE, "auto", lambda p: True),
    "general-twdp": (GENERAL, "auto", lambda p: True),
    "general-oracle": (GENERAL, "oracle", lambda p: True),
    "general-approx": (GENERAL, "approx", lambda p: True),
}

EXPECTED = {
    "caterpillar-fast": "ac9df12cbc9c7f07486a7ef50798e0228d7ca83db01aab983fe3b8124237b44d",
    "caterpillar-reference": "004471944fdd73f430ac0c51e89a5dced98b1220ab4205667ebf7bd02f8619ce",
    "chain-fast": "6ac6e2c05d559ad2f0a8849a84e64eaafdf853d3cda954d37930ccda07c78046",
    "chain-reference": "077f69d6e10069462a4dcac871ecd0ce257db5de2b05f780dcbc5694c4c22e99",
    "degenerate-ring": "bd7eebd19ba0f9fbafc5fa55583f0f9f52623ee548e42fb4d0b1ea2bbc72893e",
    "forest": "253fb9d8b87bcdca320fd6bc58f9f45477c62a440c1fe5e3c96da15184843af9",
    "general-approx": "988ba6f851e92dd3d0b74b2b0b7cf63306cd0e4d6fa9d76eb88a52f817ebcca4",
    "general-oracle": "5f03e82203801681897693f94cb7a10690f46ac8dae0d21dd2109334b2656ff0",
    "general-twdp": "89c8cd47c70876666c5dbf63e5a085c06ba987c67ed59908c38cc501feb7359a",
    "mixed-star": "d598dfb7fd3db81a85e7f8a1eea5de2b5d9c6f5c414bb91c8952b5f2ff7a1ed7",
    "mixed-star-flipped": "adcbd0ea3aad4b7f54eb6787831c761bffd6785b8cb6e182c42eb27b7ad1e480",
    "passage-triple-ring": "edd089af45f0789f2fa79a04a872bdc90c4cd5cfed4750a027d6a9c4c5d33b89",
    "pseudotree": "dc2e85d3663f90b213e7dacd48b911d9487227937e94d208a460f1e9352dbf7c",
    "star-flipped-hub": "7c7a46372502d6e5138e558c94107487fabf21986120cd04fd7b493448be1bf5",
    "star-regular-hub": "e896915af0260f62b7360302e0a53139417cc809201e902f5e425be9a99e5925",
}


def golden_text(pairs, algorithm):
    name, network, ratio, _ = dispatch(list(pairs), algorithm)
    return serialize_solution(solution_from_network(network, name, ratio, 0))


def digest(pairs, algorithm):
    return hashlib.sha256(golden_text(pairs, algorithm).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_solution_file_is_unchanged(case):
    pairs, algorithm, precondition = CASES[case]
    assert precondition(pairs), f"{case}: the instance no longer takes its path"
    assert digest(pairs, algorithm) == EXPECTED[case]


def test_expected_names_the_corpus():
    assert sorted(EXPECTED) == sorted(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(*CASES[case][:2])}",')
