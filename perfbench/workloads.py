"""Seeded instance sets for the four benchmark workloads.

Each workload's instances follow from its seed alone: the same seed gives
the same cases.  The stock generator (`gmmn.cli.generate`) supplies the star,
caterpillar and small instances.  The rest come from generators kept here:
`deep_chain` trees (a copy of the one in the acceptance suite), rings with
and without degenerate pairs, and the dense clusters that drive twdp into
its entry cap.  README.md says why each one is needed.

`gmmn` is imported inside each function, not at module level, so that a
fresh import of the package (see `run.setup`) is picked up by the next
build.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("star-hub", "tree-window", "ring-triples", "small-mixed")

# Sub-seed stride: instance k of workload seed s uses stock seed s*STRIDE+k.
STRIDE = 1000

# star-hub: stock stars, one size; the first STAR_FLIPPED have a flipped hub.
STAR_N, STAR_COUNT, STAR_FLIPPED = 200, 8, 2
# tree-window: three kinds of instance, `TREE_COUNT` of each.  Ring pairs
# off the corners are degenerate with the stock generator's 15 % chance.
CHAIN_N, CATERPILLAR_N, DEGENERATE_RING_N, TREE_COUNT = 170, 200, 150, 3
DEGENERATE_SHARE = 0.15
# ring-triples: non-degenerate rings.
RING_N, RING_COUNT = 100, 5
MIN_TRIPLES = 3
# small-mixed: (class, n range, count) per stock class, coordinate range 4n
# (8 for `general`), plus CLUSTER_COUNT dense clusters of CLUSTER_N pairs.
SMALL_MIX = (
    ("star", (3, 10), 8),
    ("tree", (4, 10), 8),
    ("general", (4, 4), 9),
    ("cycle", (6, 8), 30),
    ("pseudotree", (6, 8), 30),
)
CLUSTER_N, CLUSTER_COUNT = 5, 15


@dataclass(frozen=True)
class Case:
    """One benchmark instance: what kind it is and the instance file."""

    kind: str
    instance: object  # gmmn.cli.InstanceFile

    @property
    def n(self) -> int:
        return len(self.instance.pairs)


class PreconditionFailed(RuntimeError):
    """A generated instance does not have the shape its workload needs."""


def build(workload: str, seed: int) -> list[Case]:
    """The workload's instances for `seed`, in solve order."""
    by_name = {
        "star-hub": _star_hub,
        "tree-window": _tree_window,
        "ring-triples": _ring_triples,
        "small-mixed": _small_mixed,
    }
    return by_name[workload](seed)


def _star_hub(seed: int) -> list[Case]:
    """Stock stars with a fixed share of flipped hubs.

    A flipped hub sends `solve_star` through `reflect_instance` and a
    second `pick_center`, about a third more work, so the hub orientation
    splits star solve times into two modes.  The stock generator picks it
    by coin flip; mirroring an instance top to bottom (an isometry, so the
    optimum keeps its length) fixes the share instead, and p50 stays in
    the regular-hub mode on every seed.
    """
    from gmmn.cli import InstanceFile, generate
    from gmmn.geometry import FLIPPED, Point, TerminalPair

    r = 2 * STAR_N + 6
    cases = []
    for k in range(STAR_COUNT):
        inst = generate("star", STAR_N, r, seed * STRIDE + k)
        hub = max(inst.pairs, key=lambda p: p.box.width * p.box.height)
        if (hub.orientation == FLIPPED) != (k < STAR_FLIPPED):
            mirrored = tuple(
                TerminalPair.make(p.id, Point(p.s.x, r - p.s.y), Point(p.t.x, r - p.t.y))
                for p in inst.pairs
            )
            inst = InstanceFile(mirrored, inst.name, inst.intended_class)
        cases.append(Case("star", inst))
    return cases


def _tree_window(seed: int) -> list[Case]:
    from gmmn.cli import InstanceFile, generate

    cases = []
    for k in range(TREE_COUNT):
        sub = seed * STRIDE + k
        chain = deep_chain(CHAIN_N, sub)
        cases.append(Case("deep_chain", InstanceFile(tuple(chain))))
        cases.append(
            Case("caterpillar", generate("tree", CATERPILLAR_N, 3 * CATERPILLAR_N, sub))
        )
        rng = random.Random(f"perfbench-degenerate-ring:{DEGENERATE_RING_N}:{seed}:{k}")
        ring = ring_instance(rng, DEGENERATE_RING_N, DEGENERATE_SHARE)
        cases.append(Case("degenerate_ring", InstanceFile(tuple(ring))))
    return cases


def _ring_triples(seed: int) -> list[Case]:
    from gmmn.cli import InstanceFile

    cases = []
    for k in range(RING_COUNT):
        rng = random.Random(f"perfbench-ring:{RING_N}:{seed}:{k}")
        cases.append(Case("ring", InstanceFile(tuple(ring_instance(rng, RING_N)))))
    return cases


def _small_mixed(seed: int) -> list[Case]:
    from gmmn.cli import InstanceFile, generate

    cases = []
    for cls, (n_lo, n_hi), count in SMALL_MIX:
        for k in range(count):
            n = n_lo + k % (n_hi - n_lo + 1)
            r = 8 if cls == "general" else 4 * n
            cases.append(Case(f"small-{cls}", generate(cls, n, r, seed * STRIDE + k)))
    rng = random.Random(f"perfbench-cluster:{seed}")
    for _ in range(CLUSTER_COUNT):
        pairs = cluster_instance(rng, CLUSTER_N)
        cases.append(Case("small-cluster", InstanceFile(tuple(pairs))))
    # Interleave the kinds so that a partial pass samples all of them.
    random.Random(f"perfbench-small:{seed}").shuffle(cases)
    return cases


def cluster_instance(rng: random.Random, n: int):
    """`n` pairs whose boxes pairwise overlap, each over n + 1 grid lines.

    Box i spans the i-th to (i+n)-th of 2n random x coordinates, and
    likewise in y for a shuffled i, so every two boxes overlap and the
    intersection graph is complete: `auto` dispatch runs twdp.  Each pair
    has C(2n, n) candidate M-paths (252 at n = 5), so the twdp table passes
    the default entry cap of 200 000 at the third introduce node and
    dispatch falls back to the approximation.  The wasted work is the same
    on every cluster; on stock `general` instances of this size solve
    times spread over three orders of magnitude.
    """
    from gmmn.geometry import Point, TerminalPair

    xs = sorted(rng.sample(range(4 * n + 1), 2 * n))
    ys = sorted(rng.sample(range(4 * n + 1), 2 * n))
    rows = list(range(n))
    rng.shuffle(rows)
    pairs = []
    for i, row in enumerate(rows):
        lo, hi = Point(xs[i], ys[row]), Point(xs[i + n], ys[row + n])
        if rng.random() < 0.5:
            pairs.append(TerminalPair.make(i, lo, hi))
        else:
            pairs.append(TerminalPair.make(i, Point(lo.x, hi.y), Point(hi.x, lo.y)))
    return pairs


def deep_chain(n: int, seed: int):
    """Chain of side-by-side tall boxes with jittered vertical extents.

    Same construction as `deep_chain` in tests/test_acceptance.py: the
    overlap windows of neighbouring boxes hold more rows as n grows, so the
    per-window work of the tree dp grows with n.
    """
    from gmmn.geometry import Point, TerminalPair

    rng = random.Random(f"deep-chain:{n}:{seed}")
    jitter = max(3, round(3.5 * (n / 50.0) ** 1.1))
    top = 2 * jitter + 2
    pairs = []
    for i in range(n):
        lo = Point(2 * i, rng.randint(0, jitter))
        hi = Point(2 * i + 2, top - rng.randint(0, jitter))
        if rng.random() < 0.5:
            pairs.append(TerminalPair.make(i, lo, hi))
        else:
            pairs.append(TerminalPair.make(i, Point(lo.x, hi.y), Point(hi.x, lo.y)))
    return pairs


def _cuts(rng: random.Random, k: int, side: int) -> list[int]:
    """0 = c_0 < c_1 < ... < c_k = side - 1 with consecutive gaps >= 2."""
    slack = (side - 5) - 2 * (k - 2)
    offsets = sorted(rng.randint(0, slack) for _ in range(k - 1))
    return [0] + [2 + 2 * i + off for i, off in enumerate(offsets)] + [side - 1]


def ring_instance(rng: random.Random, n: int, degenerate: float = 0.0):
    """A ring of `n` pairs around a square, as the stock `cycle` generator
    lays it out.

    Boxes are unit-thick strips along the four sides.  Box j on a side
    spans [c_j, c_{j+1} + 1], so neighbours on a side overlap in a unit
    square and the corner boxes of adjacent sides overlap in the corner
    square; no other boxes meet.  Every strip is at least three units long.
    Each strip off the corners is flattened, with chance `degenerate`, onto
    the ring's outer edge, where it still shares an edge with both
    neighbours; the other strips get a diagonal pair.  (The stock generator
    flattens onto either edge, and two neighbours flattened onto opposite
    edges no longer meet, so at n >= 100 it retries a varying number of
    times or fails.)

    With `degenerate` 0 the ring must need the passage-triple reduction,
    otherwise it must have a degenerate pair to cut; see
    `ring_preconditions`.  A draw that fails is replaced.
    """
    from gmmn.geometry import Point, TerminalPair

    if n < 4:
        raise ValueError("a ring needs at least 4 pairs")
    for _ in range(20):
        counts = [1, 1, 1, 1]
        for _ in range(n - 4):
            counts[rng.randrange(4)] += 1
        side = 2 * max(counts) + 1 + rng.randint(0, n)
        boxes = []
        for s, k in enumerate(counts):
            cuts = _cuts(rng, k, side)
            for j in range(k):
                a, b = cuts[j], cuts[j + 1] + 1
                if s == 0:  # bottom, left to right
                    lo, hi = Point(a, 0), Point(b, 1)
                elif s == 1:  # right, bottom to top
                    lo, hi = Point(side - 1, a), Point(side, b)
                elif s == 2:  # top, right to left
                    lo, hi = Point(side - b, side - 1), Point(side - a, side)
                else:  # left, top to bottom
                    lo, hi = Point(0, side - b), Point(1, side - a)
                if degenerate and 0 < j < k - 1 and rng.random() < degenerate:
                    if s in (0, 2):
                        y = 0 if s == 0 else side
                        boxes.append((Point(lo.x, y), Point(hi.x, y)))
                    else:
                        x = side if s == 1 else 0
                        boxes.append((Point(x, lo.y), Point(x, hi.y)))
                elif rng.random() < 0.5:
                    boxes.append((lo, hi))
                else:
                    boxes.append((Point(lo.x, hi.y), Point(hi.x, lo.y)))
        pairs = [TerminalPair.make(i, a, b) for i, (a, b) in enumerate(boxes)]
        if ring_preconditions(pairs, degenerate > 0) is None:
            return pairs
    raise PreconditionFailed(f"no ring with n={n} met the preconditions")


def ring_preconditions(pairs, degenerate: bool = False) -> str | None:
    """Why `pairs` is not a ring of the wanted kind, or None if it is one.

    A degenerate ring must have a pair for `cut_degenerate_cycle` to cut;
    any other ring must have none and yield at least MIN_TRIPLES passage
    triples.
    """
    from gmmn.instance_graph import CYCLE, build_intersection_graph, find_cycle
    from gmmn.pseudotree import build_reduction_plan, cut_degenerate_cycle

    ig = build_intersection_graph(pairs)
    if ig.class_tag != CYCLE:
        return f"class is {ig.class_tag}, not {CYCLE}"
    cut = cut_degenerate_cycle(pairs, find_cycle(ig.adjacency), ig)
    if degenerate:
        return None if cut is not None else "no degenerate pair to cut"
    if cut is not None:
        return "the ring has a degenerate pair to cut"
    triples = len(build_reduction_plan(pairs, ig).triples)
    if triples < MIN_TRIPLES:
        return f"{triples} passage triples, fewer than {MIN_TRIPLES}"
    return None
