"""Pinned witnesses: what `AuxDag.witness` decodes from each DAG.

`test_dag_pin` pins the DAGs and `test_golden` pins the final paths; this
file pins the step between them.  Each case records every `witness` call
one solver call makes and hashes, per call, its value, its crossings and
its waypoints; the case's digest covers the calls in order.

The star cases are the star hubs of ``test_golden`` in both gadget modes,
decoded by `solve_star`; the tree cases are the golden chain, caterpillar,
forest, rings and pseudotree, decoded by the tree dp's reconstruction.  To
re-record after an intended change to the decoder, run
``PYTHONPATH=src python tests/test_witness_pin.py`` and copy the printed
table into ``EXPECTED``.
"""

import hashlib

import pytest

from gmmn.pseudotree import solve_pseudotree
from gmmn.star_dag import AuxDag, solve_star
from gmmn.tree_dp_fast import solve_tree_fast
from test_golden import (
    CHAIN,
    DEGENERATE_RING,
    FOREST_PAIRS,
    MIXED_STAR,
    PSEUDOTREE,
    RING,
    STAR,
    TREE,
    mirrored,
)

STAR_INSTANCES = {
    "star-regular-hub": STAR,
    "star-flipped-hub": mirrored(STAR),
    "mixed-star": MIXED_STAR,
    "mixed-star-flipped": mirrored(MIXED_STAR),
}

# name -> call that decodes the witnesses
CASES = {
    **{
        f"{name}-{mode}": (lambda p=pairs, s=simplified: solve_star(p, s))
        for name, pairs in STAR_INSTANCES.items()
        for mode, simplified in (("simplified", True), ("full", False))
    },
    "chain": lambda: solve_tree_fast(CHAIN),
    "caterpillar": lambda: solve_tree_fast(TREE),
    "forest": lambda: solve_tree_fast(FOREST_PAIRS),
    "degenerate-ring": lambda: solve_pseudotree(DEGENERATE_RING),
    "passage-triple-ring": lambda: solve_pseudotree(RING),
    "pseudotree": lambda: solve_pseudotree(PSEUDOTREE),
}

EXPECTED = {
    "caterpillar": (40, "58ccc4bf8913b4df17a9dba56bd0a729e344a533e29e017d7039574a55080f12"),
    "chain": (30, "f403f1136e6ad71d4eda1eec980462e0002d9d1a6c14be0e86736dc5c6255dbb"),
    "degenerate-ring": (11, "b56e50bf43eb06cd13157441e3f135ab6b73bb3a03d7a184d073b32c40579e1b"),
    "forest": (17, "a9208f80c829b508808d6d9727b3a9563657c41d766ff85643d12daeee3f5c40"),
    "mixed-star-flipped-full": (1, "c009d38f573e5035a4ca3abf1083c0c6709118a65d5ebfdf0b0d5e82d304a84f"),
    "mixed-star-flipped-simplified": (1, "d491b7d1a178dc729369a869f33a4136936b2624f090ea1b90522f495d0a6664"),
    "mixed-star-full": (1, "302e120d28873eafeb97e225a9f0fc0ab60906da153b955781d1575e4734764c"),
    "mixed-star-simplified": (1, "363de03f0b21f0c0a17f60e99282013ed491fe65798da1f6a7631d48e153fcf2"),
    "passage-triple-ring": (53, "f533ee7f2137a76a6fb03e26fdecbf2408bdcdf36d81c20a2b71930b6e536660"),
    "pseudotree": (22, "98156249f34605f6d896d246ead60922f819656d27a7d89e87a71d57876758a3"),
    "star-flipped-hub-full": (1, "cc73c346576fd1434afb2be885ba49f03dcb6afd932c59c6042e35f3a7605a92"),
    "star-flipped-hub-simplified": (1, "d495f623e590e7ce5b49cee9c4650612221503c03c6b8aa48b9a949aeff0307a"),
    "star-regular-hub-full": (1, "a234af3c36ef69891a6450f80874af3aed3a319a9660e3b94f82123ae1279bb3"),
    "star-regular-hub-simplified": (1, "04adea4a599a6d1985a80c8ce278d0b50e67b93a9d0b6314a5d71b6e5da93be6"),
}


def case_digest(case, monkeypatch):
    digests = []
    original = AuxDag.witness

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        digests.append(hashlib.sha256(repr(result).encode()).hexdigest())
        return result

    monkeypatch.setattr(AuxDag, "witness", recording)
    CASES[case]()
    monkeypatch.undo()
    assert digests, f"{case} decoded no witness"
    return len(digests), hashlib.sha256(" ".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_witnesses_are_unchanged(case, monkeypatch):
    assert case_digest(case, monkeypatch) == EXPECTED[case]


def test_expected_names_the_corpus():
    assert sorted(EXPECTED) == sorted(CASES)


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    for case in sorted(CASES):
        count, digest = case_digest(case, patch)
        print(f'    "{case}": ({count}, "{digest}"),')
