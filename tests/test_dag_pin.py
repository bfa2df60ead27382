"""Pinned auxiliary DAGs: node ids, arcs, relaxation order and sweep values.

The golden solution files only see the paths a DAG's witness produces, so
they cannot tell whether a DAG kept its node numbering, its arcs or its
sweep values.  Each case here records every `AuxDag` one solver call builds
and hashes, per DAG, its node count, its sorted arcs, its `topo_index`, and
its default forward and backward sweeps; the case's digest covers the DAGs
in build order.

The star cases are the star hubs of ``test_golden`` in both gadget modes;
the tree cases are every cell DAG the bulk fill (`fast_node_table`) and the
reference fill (`compute_dp_cell`) build for the golden chain and
caterpillar.  To re-record after an intended change to the DAG, run
``PYTHONPATH=src python tests/test_dag_pin.py`` and copy the printed table
into ``EXPECTED``.
"""

import hashlib

import pytest

from gmmn.star_dag import AuxDag, solve_star
from gmmn.tree_dp import prepare_tree
from gmmn.tree_dp_fast import prepare_tree_fast
from test_golden import CHAIN, MIXED_STAR, STAR, TREE, mirrored


def dag_digest(dag):
    text = repr((
        dag.node_count,
        sorted(dag.iter_arcs()),
        sorted(dag.topo_index().items()),
        dag.forward(),
        dag.backward(),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


STAR_INSTANCES = {
    "star-regular-hub": STAR,
    "star-flipped-hub": mirrored(STAR),
    "mixed-star": MIXED_STAR,
    "mixed-star-flipped": mirrored(MIXED_STAR),
}

# name -> call that builds the DAGs
CASES = {
    **{
        f"{name}-{mode}": (lambda p=pairs, s=simplified: solve_star(p, s))
        for name, pairs in STAR_INSTANCES.items()
        for mode, simplified in (("simplified", True), ("full", False))
    },
    "chain-fast-fill": lambda: prepare_tree_fast(CHAIN),
    "chain-reference-fill": lambda: prepare_tree(CHAIN),
    "caterpillar-fast-fill": lambda: prepare_tree_fast(TREE),
    "caterpillar-reference-fill": lambda: prepare_tree(TREE),
}

EXPECTED = {
    "caterpillar-fast-fill": (40, "c9a11209b1d248ad1f53591dc12eaf9c04d8f29ddba0ff4798694f7a602d924d"),
    "caterpillar-reference-fill": (145, "e5c10207f3391fbd6c363450b930b89248b19ee2fdd4e2d11f99ad8a95a7f8e6"),
    "chain-fast-fill": (30, "42c5eec7768fde261fefff90fc06b9cf1551180937ff3fef8641268fb308b67f"),
    "chain-reference-fill": (421, "05fe7724431126b81c5975d726ba6b56a8f9a34899bed161565d8f8875ceef97"),
    "mixed-star-flipped-full": (1, "012c176eccbbfaf54752b9cf24e798edb10c5de741aa00248354fc9a9a5bfbda"),
    "mixed-star-flipped-simplified": (1, "56282d6bd0493f4108c0d2c99de6719ea466369e8d66daed862681fe7d69471d"),
    "mixed-star-full": (1, "012c176eccbbfaf54752b9cf24e798edb10c5de741aa00248354fc9a9a5bfbda"),
    "mixed-star-simplified": (1, "56282d6bd0493f4108c0d2c99de6719ea466369e8d66daed862681fe7d69471d"),
    "star-flipped-hub-full": (1, "32a4d300f78b0451cff2a0abc674c548eb5e5fb597ddbfef51268f35e1f7ce7b"),
    "star-flipped-hub-simplified": (1, "bfbc9a1814f3959019c555f8f57140d55f34b91e296483553ca8419348131e8d"),
    "star-regular-hub-full": (1, "32a4d300f78b0451cff2a0abc674c548eb5e5fb597ddbfef51268f35e1f7ce7b"),
    "star-regular-hub-simplified": (1, "bfbc9a1814f3959019c555f8f57140d55f34b91e296483553ca8419348131e8d"),
}


def case_digest(case, monkeypatch):
    digests = []
    original = AuxDag.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        digests.append(dag_digest(self))

    monkeypatch.setattr(AuxDag, "__init__", recording)
    CASES[case]()
    monkeypatch.undo()
    assert digests, f"{case} built no DAG"
    return len(digests), hashlib.sha256(" ".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_dags_are_unchanged(case, monkeypatch):
    assert case_digest(case, monkeypatch) == EXPECTED[case]


def test_expected_names_the_corpus():
    assert sorted(EXPECTED) == sorted(CASES)


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    for case in sorted(CASES):
        count, digest = case_digest(case, patch)
        print(f'    "{case}": ({count}, "{digest}"),')
