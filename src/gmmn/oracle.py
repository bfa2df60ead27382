"""Brute-force exact solver: exhaustive search over M-path combinations.

Ground truth for the polynomial solvers. Only viable for tiny instances;
the search prunes with an incumbent bound on the partial union length.
"""

from __future__ import annotations

from .errors import CapExceeded
from .geometry import (
    GridNetwork,
    MPath,
    Point,
    TerminalPair,
    build_hanan_grid,
    edge_length,
    enumerate_m_paths,
)


def solve_bruteforce(
    instance: list[TerminalPair], product_cap: int = 5_000_000
) -> GridNetwork:
    """Minimum union length over the Cartesian product of per-pair M-paths.

    Ties are broken toward the lexicographically smallest tuple of paths
    (in pair-id order), which keeps recorded fixtures deterministic.  The
    network is certified against the search's minimum.
    """
    grid = build_hanan_grid(instance)
    pairs = sorted(instance, key=lambda p: p.id)

    per_pair_paths: list[list[MPath]] = []
    product = 1
    for pair in pairs:
        paths = enumerate_m_paths(grid, pair, cap=product_cap)
        product *= len(paths)
        if product > product_cap:
            raise CapExceeded(
                f"M-path combination count exceeds the cap of {product_cap}"
            )
        per_pair_paths.append(paths)

    # Edge lists precomputed once per candidate path.
    per_pair_edges = [
        [sorted(path.edges()) for path in paths] for paths in per_pair_paths
    ]

    # Depth-first over the pairs, without recursion: choice[level] is
    # the path index applied at each level (-1 for none), partial[level]
    # the union length of the paths above it.
    n = len(pairs)
    best_total: int | None = None
    best_choice: list[int] = []
    choice = [-1] * n
    partial = [0] * n
    refcount: dict[tuple[Point, Point], int] = {}
    level = 0
    while level >= 0:
        edge_lists = per_pair_edges[level]
        k = choice[level]
        if k >= 0:
            for e in edge_lists[k]:
                refcount[e] -= 1
        k += 1
        if k == len(edge_lists):
            choice[level] = -1
            level -= 1
            continue
        choice[level] = k
        total = partial[level]
        for e in edge_lists[k]:
            c = refcount.get(e, 0)
            refcount[e] = c + 1
            if c == 0:
                total += edge_length(e)
        if best_total is not None and total >= best_total:
            continue
        if level + 1 == n:
            best_total, best_choice = total, choice[:]
            continue
        level += 1
        partial[level] = total

    chosen = [per_pair_paths[i][k] for i, k in enumerate(best_choice)]
    return GridNetwork.certified(pairs, chosen, grid, best_total)
