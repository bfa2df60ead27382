"""Property tests: auto dispatch is optimal whatever the pair ids are.

Each example generates a small instance of a random class, relabels its
pair ids injectively (so vertex k of the intersection graph is no longer
pair k) and checks `dispatch(..., "auto")` against the brute-force oracle.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmmn.cli import dispatch, generate
from gmmn.errors import CapExceeded, GenerationFailed
from gmmn.geometry import TerminalPair, build_hanan_grid
from gmmn.oracle import solve_bruteforce

# Smallest n each generator class can realize.
MIN_N = {"star": 1, "tree": 1, "cycle": 4, "pseudotree": 5, "general": 3}
ORACLE_CAP = 20_000


@st.composite
def relabelled_instances(draw):
    cls = draw(st.sampled_from(sorted(MIN_N)))
    n = draw(st.integers(MIN_N[cls], 5))
    coord_range = draw(st.sampled_from([6, 8, 10]))
    seed = draw(st.integers(0, 10**6))
    try:
        pairs = generate(cls, n, coord_range, seed).pairs
    except GenerationFailed:
        assume(False)
    order = draw(st.permutations(range(n)))
    offset, stride = draw(st.integers(-100, 100)), draw(st.integers(1, 7))
    return [
        TerminalPair.make(offset + stride * k, p.s, p.t) for k, p in zip(order, pairs)
    ]


@settings(max_examples=300, deadline=None)
@given(relabelled_instances())
def test_auto_dispatch_matches_the_oracle(pairs):
    try:
        want = solve_bruteforce(pairs, product_cap=ORACLE_CAP).total_length
    except CapExceeded:
        assume(False)
    name, network, ratio, _ = dispatch(pairs, "auto")
    assume(name != "approx")
    assert ratio == 1
    assert network.total_length == want
    assert sorted(m.pair_id for m in network.paths) == sorted(p.id for p in pairs)
    network.validate(build_hanan_grid(pairs))
