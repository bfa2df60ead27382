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

    best_total: int | None = None
    best_choice: list[int] = []
    choice: list[int] = [0] * len(pairs)
    refcount: dict[tuple[Point, Point], int] = {}

    def search(idx: int, partial: int) -> None:
        nonlocal best_total, best_choice
        if best_total is not None and partial >= best_total:
            return
        if idx == len(pairs):
            best_total = partial
            best_choice = choice[:]
            return
        for path_idx, edges in enumerate(per_pair_edges[idx]):
            added = 0
            for e in edges:
                c = refcount.get(e, 0)
                refcount[e] = c + 1
                if c == 0:
                    added += edge_length(e)
            choice[idx] = path_idx
            search(idx + 1, partial + added)
            for e in edges:
                c = refcount[e] - 1
                if c:
                    refcount[e] = c
                else:
                    del refcount[e]

    search(0, 0)
    chosen = [per_pair_paths[i][k] for i, k in enumerate(best_choice)]
    return GridNetwork.certified(pairs, chosen, grid, best_total)
