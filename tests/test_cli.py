"""Tests for serialization, generators, dispatch, rendering, and bench."""

import random
import re
import sys

import pytest

import gmmn.cli
import gmmn.geometry
import gmmn.instance_graph
from gmmn.cli import (
    ALGORITHMS,
    BenchReport,
    FormatError,
    InstanceFile,
    dispatch,
    generate,
    instance_from_solution,
    loglog_slope,
    main,
    parse_bench,
    parse_instance,
    parse_solution,
    render_svg,
    serialize_bench,
    serialize_instance,
    serialize_solution,
    solve_to_file,
    validate_solution,
)
from gmmn.errors import CapExceeded, CertificateFailed, GenerationFailed
from gmmn.geometry import GridNetwork, Point, TerminalPair
from gmmn.instance_graph import build_intersection_graph, find_cycle
from gmmn.oracle import solve_bruteforce
from gmmn.pseudotree import build_reduction_plan, cut_degenerate_cycle
from test_golden import CASES


def make(specs):
    return [
        TerminalPair.make(i, Point(*a), Point(*b))
        for i, (a, b) in enumerate(specs)
    ]


class TestRoundTrips:
    def test_instance_round_trip_is_bit_exact(self):
        inst = generate("tree", 5, 12, seed=4)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    def test_solution_round_trip_is_bit_exact(self):
        inst = generate("star", 3, 8, seed=1)
        sol, _ = solve_to_file(inst)
        text = serialize_solution(sol)
        again = parse_solution(text)
        assert again == sol
        assert serialize_solution(again) == text

    def test_bench_round_trip_is_bit_exact(self):
        report = BenchReport(
            measurements=[("star", "star", 10, 0, 1.25), ("star", "star", 20, 0, 3.5)],
            medians=[("star", "star", 10, 1.25), ("star", "star", 20, 3.5)],
            slopes=[("star", "star", 1.4854268271702415)],
        )
        text = serialize_bench(report)
        assert parse_bench(text) == report
        assert serialize_bench(parse_bench(text)) == text

    def test_instance_recoverable_from_solution(self):
        inst = generate("cycle", 4, 8, seed=2)
        sol, _ = solve_to_file(inst)
        assert instance_from_solution(sol).pairs == inst.pairs

    def test_parse_rejects_bad_input(self):
        with pytest.raises(FormatError):
            parse_instance("not a header\n")
        with pytest.raises(FormatError):
            parse_instance("gmmn-instance 1\npair 1 2 three 4\n")
        with pytest.raises(FormatError):
            parse_instance("gmmn-instance 1\n")  # no pairs
        with pytest.raises(FormatError):
            parse_solution("gmmn-solution 1\nsolver x\n")  # missing fields
        head = "gmmn-solution 1\nsolver x\ntotal_length 2\nratio 1\nwall_ms 0\n"
        # (parser, text, the offending line the error must name)
        bad = [
            (parse_bench, "gmmn-bench 1\n\n", ""),
            (parse_bench, "gmmn-bench 1\nmeasure a b ten 0 1.5\n", "measure a b ten 0 1.5"),
            (parse_bench, "gmmn-bench 1\nmedian a b 10 fast\n", "median a b 10 fast"),
            (parse_bench, "gmmn-bench 1\nslope a b steep\n", "slope a b steep"),
            (parse_solution, head + "edge 0 0 1\n", "edge 0 0 1"),
            (parse_solution, head + "edge 0 0 1 x\n", "edge 0 0 1 x"),
            (parse_solution, head + "path 0 0 0 1 y\n", "path 0 0 0 1 y"),
            (parse_solution, head + "path p 0 0 1 0\n", "path p 0 0 1 0"),
            (parse_solution, head.replace("ratio 1", "ratio one"), "ratio one"),
        ]
        for parse, text, line in bad:
            with pytest.raises(FormatError, match=re.escape(repr(line))):
                parse(text)

    def test_validate_solution_catches_tampering(self):
        inst = generate("star", 3, 8, seed=5)
        sol, _ = solve_to_file(inst)
        text = serialize_solution(sol).replace(
            f"total_length {sol.total_length}",
            f"total_length {sol.total_length + 1}",
        )
        with pytest.raises(FormatError):
            validate_solution(parse_solution(text))


class TestGenerate:
    CASES = [
        ("star", 2, "star"),
        ("star", 6, "star"),
        ("tree", 5, "tree"),
        ("tree", 12, "tree"),
        ("cycle", 4, "cycle"),
        ("cycle", 9, "cycle"),
        ("pseudotree", 5, "triangle-free-pseudotree"),
        ("pseudotree", 11, "triangle-free-pseudotree"),
        ("general", 3, "general"),
        ("general", 7, "general"),
    ]

    @pytest.mark.parametrize("cls,n,tag", CASES)
    def test_requested_class_is_realized(self, cls, n, tag):
        for seed in range(5):
            inst = generate(cls, n, max(10, 3 * n), seed)
            assert len(inst.pairs) == n
            assert inst.intended_class == cls
            got = build_intersection_graph(list(inst.pairs)).class_tag
            assert got == tag, (cls, n, seed, got)

    def test_single_pair(self):
        inst = generate("star", 1, 8, seed=0)
        assert len(inst.pairs) == 1

    def test_deterministic_per_seed(self):
        a = generate("pseudotree", 8, 30, seed=9)
        b = generate("pseudotree", 8, 30, seed=9)
        c = generate("pseudotree", 8, 30, seed=10)
        assert a == b
        assert a.pairs != c.pairs

    def test_impossible_requests_fail(self):
        with pytest.raises(GenerationFailed):
            generate("cycle", 3, 100, seed=0)
        with pytest.raises(GenerationFailed):
            generate("pseudotree", 4, 100, seed=0)
        with pytest.raises(GenerationFailed):
            generate("star", 50, 8, seed=0)  # range too small
        with pytest.raises(GenerationFailed):
            generate("nonsense", 3, 8, seed=0)


class TestDispatch:
    def test_routing_by_class(self):
        routes = [
            ("star", 4, "star"),
            ("tree", 5, "tree-fast"),
            ("cycle", 4, "pseudotree"),
            ("pseudotree", 5, "pseudotree"),
            ("general", 3, "twdp"),
        ]
        for cls, n, solver in routes:
            inst = generate(cls, n, 10, seed=0)
            name, net, ratio, warning = dispatch(list(inst.pairs))
            assert name == solver
            assert ratio == 1 and warning is None

    def test_explicit_algorithms_agree(self):
        inst = generate("tree", 5, 12, seed=3)
        pairs = list(inst.pairs)
        lengths = {
            algo: dispatch(pairs, algo)[1].total_length
            for algo in ("tree", "tree-fast", "oracle", "twdp")
        }
        assert len(set(lengths.values())) == 1

    def test_approx_fallback_warns(self):
        inst = generate("general", 4, 8, seed=0)
        name, net, ratio, warning = dispatch(list(inst.pairs), "auto", cap=1)
        assert name == "approx"
        assert ratio >= 1 and warning is not None

    def test_generated_instances_match_the_oracle(self):
        rng = random.Random(5)
        for cls, n in [("star", 3), ("tree", 4), ("cycle", 4),
                       ("pseudotree", 5), ("general", 3)]:
            for _ in range(6):
                inst = generate(cls, n, 8, rng.randrange(10**6))
                pairs = list(inst.pairs)
                try:
                    want = solve_bruteforce(pairs).total_length
                except CapExceeded:
                    continue
                name, net, ratio, _ = dispatch(pairs)
                if ratio == 1:
                    assert net.total_length == want, (cls, n, name)


def relabelled(pairs, shift):
    return [TerminalPair.make(p.id + shift, p.s, p.t) for p in pairs]


class TestPairIds:
    # +10 moves every id off its vertex; -1 gives one pair the id -1.
    @pytest.mark.parametrize("shift", [10, -1])
    @pytest.mark.parametrize(
        "cls,n", [("star", 8), ("tree", 8), ("cycle", 8), ("pseudotree", 8), ("general", 5)]
    )
    def test_shifted_ids_solve_alike(self, cls, n, shift):
        pairs = list(generate(cls, n, 40, 1).pairs)
        name, net, ratio, _ = dispatch(pairs)
        shifted = relabelled(pairs, shift)
        got_name, got, got_ratio, _ = dispatch(shifted)
        assert (got_name, got.total_length, got_ratio) == (name, net.total_length, ratio)
        assert sorted(m.pair_id for m in got.paths) == sorted(p.id for p in shifted)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_repeated_ids_are_rejected(self, algorithm):
        pairs = list(generate("tree", 5, 20, 1).pairs)
        pairs[3] = TerminalPair.make(1, pairs[3].s, pairs[3].t)
        with pytest.raises(ValueError, match="repeated pair id 1"):
            dispatch(pairs, algorithm)


def recorded(monkeypatch, original):
    """The results of every call to ``original``, wrapped in every `gmmn`
    namespace that binds it."""
    results = []

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gmmn" or name.startswith("gmmn.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return results


@pytest.fixture
def builds(monkeypatch):
    """Intersection-graph builds, in every namespace that binds the builder."""
    return recorded(monkeypatch, gmmn.instance_graph.build_intersection_graph)


def ring(degenerate):
    """A generated cycle that takes the degenerate cut, or one that does not."""
    for seed in range(50):
        pairs = list(generate("cycle", 12, 36, seed).pairs)
        ig = build_intersection_graph(pairs)
        if (cut_degenerate_cycle(pairs, find_cycle(ig.adjacency), ig) is None) != degenerate:
            return pairs
    raise AssertionError("no such ring among the seeds")


class TestBuildsPerSolve:
    @pytest.mark.parametrize("cls,n,r,seed,cap,solver", [
        ("star", 12, 40, 0, None, "star"),
        ("tree", 20, 80, 1, None, "tree-fast"),
        ("general", 4, 8, 0, None, "twdp"),
        ("general", 4, 8, 0, 1, "approx"),
    ])
    def test_one_build_per_dispatch(self, builds, cls, n, r, seed, cap, solver):
        pairs = list(generate(cls, n, r, seed).pairs)
        builds.clear()
        assert dispatch(pairs, "auto", cap)[0] == solver
        assert len(builds) == 1

    def test_one_build_per_forest_dispatch(self, builds):
        left = list(generate("tree", 6, 24, 3).pairs)
        right = [
            TerminalPair.make(p.id + 6, Point(p.s.x + 100, p.s.y), Point(p.t.x + 100, p.t.y))
            for p in generate("tree", 7, 28, 4).pairs
        ]
        assert build_intersection_graph(left + right).class_tag == "forest"
        builds.clear()
        assert dispatch(left + right)[0] == "tree-fast"
        assert len(builds) == 1

    def test_degenerate_ring_builds_twice(self, builds):
        pairs = ring(degenerate=True)
        builds.clear()
        assert dispatch(pairs)[0] == "pseudotree"
        assert len(builds) == 2

    def test_passage_triple_ring_builds_once_per_triple(self, builds):
        pairs = ring(degenerate=False)
        triples = len(build_reduction_plan(pairs).triples)
        builds.clear()
        assert dispatch(pairs)[0] == "pseudotree"
        assert triples > 0 and len(builds) == 1 + triples


class TestWorkPerSolve:
    # golden case -> (Hanan grids built, networks validated) per
    # `solve_to_file`.  A flipped hub or tree node adds its `MIRROR` frame's
    # grid; the pseudotree validates its result and each derived forest's.
    COUNTS = {
        "star-regular-hub": (1, 1),
        "star-flipped-hub": (2, 1),
        "mixed-star": (1, 1),
        "mixed-star-flipped": (2, 1),
        "chain-fast": (2, 1),
        "chain-reference": (2, 1),
        "caterpillar-fast": (2, 1),
        "caterpillar-reference": (2, 1),
        "forest": (5, 1),
        "degenerate-ring": (3, 2),
        "passage-triple-ring": (11, 4),
        "pseudotree": (11, 4),
        "general-twdp": (1, 1),
        "general-oracle": (1, 1),
        "general-approx": (1, 1),
    }

    def test_counts_name_the_golden_corpus(self):
        assert sorted(self.COUNTS) == sorted(CASES)

    @pytest.mark.parametrize("case", sorted(COUNTS))
    def test_grids_and_validations(self, monkeypatch, case):
        pairs, algorithm, _ = CASES[case]
        grids = recorded(monkeypatch, gmmn.geometry.build_hanan_grid)
        validations = []
        original = GridNetwork.validate

        def validate(network, grid):
            validations.append(grid)
            original(network, grid)

        monkeypatch.setattr(GridNetwork, "validate", validate)
        solve_to_file(InstanceFile(tuple(pairs)), algorithm)
        assert (len(grids), len(validations)) == self.COUNTS[case]
        if not case.endswith("ring") and case != "pseudotree":
            coords = [(g.xs, g.ys) for g in grids]
            assert len(set(coords)) == len(coords)


class TestRender:
    def test_deterministic_and_well_formed(self):
        inst = generate("cycle", 5, 10, seed=7)
        sol, _ = solve_to_file(inst)
        svg = render_svg(sol, inst)
        assert svg == render_svg(sol, inst)
        assert svg == render_svg(sol)  # instance recovered from the paths
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 2 * len(inst.pairs)
        assert svg.count("<text") == 2 * len(inst.pairs)
        assert svg.count("<line") >= len(sol.edges)

    def test_single_pair_staircase(self):
        sol, _ = solve_to_file(generate("star", 1, 8, seed=1))
        svg = render_svg(sol)
        assert svg.count("<circle") == 2


class TestBenchMath:
    def test_slope_of_exact_power_law(self):
        points = [(10, 100.0), (100, 10000.0), (1000, 1000000.0)]
        assert loglog_slope(points) == pytest.approx(2.0)

    def test_slope_of_constant_series(self):
        assert loglog_slope([(10, 5.0), (100, 5.0)]) == pytest.approx(0.0)


class TestMain:
    def test_full_pipeline_and_exit_codes(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        sol = tmp_path / "sol.txt"
        svg = tmp_path / "out.svg"
        assert main(["generate", "--class", "tree", "--n", "5",
                     "--coord-range", "12", "--seed", "2",
                     "--output", str(inst)]) == 0
        assert main(["solve", "--input", str(inst),
                     "--output", str(sol), "--svg", str(svg)]) == 0
        validate_solution(parse_solution(sol.read_text()))
        assert main(["render", "--input", str(sol),
                     "--output", str(tmp_path / "again.svg")]) == 0
        assert (tmp_path / "again.svg").read_text() == svg.read_text()

    def test_wrong_class_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["generate", "--class", "cycle", "--n", "4",
              "--coord-range", "8", "--output", str(inst)])
        assert main(["solve", "--input", str(inst),
                     "--algorithm", "star", "--output", "-"]) == 2

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["generate", "--class", "star", "--n", "6",
              "--coord-range", "30", "--output", str(inst)])
        assert main(["solve", "--input", str(inst), "--algorithm", "oracle",
                     "--cap", "2", "--output", "-"]) == 3

    def test_env_var_sets_the_default_cap(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.txt"
        main(["generate", "--class", "star", "--n", "6",
              "--coord-range", "30", "--output", str(inst)])
        monkeypatch.setenv("GMMN_CAP", "2")
        assert main(["solve", "--input", str(inst), "--algorithm", "oracle",
                     "--output", "-"]) == 3

    def test_io_error_exits_1(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "missing.txt")]) == 1
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert main(["solve", "--input", str(bad)]) == 1

    def test_overflow_risk_exits_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("gmmn-instance 1\npair 0 0 1099511627776 1\n")
        assert main(["solve", "--input", str(inst), "--output", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coordinate too large")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_width_cap_exits_3(self, tmp_path, capsys):
        # Fourteen nested boxes: a 14-clique of width 13, above the cap of 10.
        inst = tmp_path / "clique.txt"
        inst.write_text("gmmn-instance 1\n" + "".join(
            f"pair {-i - 1} {-i - 1} {20 + i} {20 + i}\n" for i in range(14)
        ))
        assert main(["solve", "--input", str(inst), "--algorithm", "twdp",
                     "--output", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: width 13 exceeds cap 10")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_other_solver_errors_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(ig, cap):
            raise CertificateFailed("certificate broken on purpose")

        monkeypatch.setitem(gmmn.cli.SOLVERS, "tree-fast", broken)
        inst = tmp_path / "inst.txt"
        main(["generate", "--class", "tree", "--n", "5",
              "--coord-range", "12", "--output", str(inst)])
        capsys.readouterr()
        assert main(["solve", "--input", str(inst), "--output", "-"]) == 1
        err = capsys.readouterr().err
        assert err == "error: certificate broken on purpose\n"

    def test_bench_report_round_trips(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        assert main(["bench", "--class", "star", "--n", "8,16",
                     "--algorithm", "star", "--repeats", "2",
                     "--output", str(out)]) == 0
        report = parse_bench(out.read_text())
        assert len(report.measurements) == 4
        assert len(report.medians) == 2
        assert len(report.slopes) == 1
        assert serialize_bench(report) == out.read_text()


class TestLongPaths:
    # A path of 1200 boxes, each sharing one vertical unit segment with the
    # next: every pair has length 3 and can share with one neighbour only,
    # so the optimum saves 600.  The solvers deal with the path's length in
    # loops, not in recursion, and run at the default recursion limit.
    N = 1200
    PAIRS = [TerminalPair.make(i, Point(2 * i, 0), Point(2 * i + 2, 1)) for i in range(N)]

    @pytest.mark.parametrize("algorithm, solver", [("auto", "tree-fast"), ("twdp", "twdp")])
    def test_dispatch_solves_the_path(self, algorithm, solver):
        name, network, _, _ = dispatch(list(self.PAIRS), algorithm)
        assert name == solver
        assert network.total_length == 3 * self.N - self.N // 2

    def test_gmmn_solve_exits_0(self, tmp_path, capsys):
        inst = tmp_path / "path.txt"
        inst.write_text("gmmn-instance 1\n" + "".join(
            f"pair {p.s.x} {p.s.y} {p.t.x} {p.t.y}\n" for p in self.PAIRS
        ))
        sol = tmp_path / "sol.txt"
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == 0
        assert parse_solution(sol.read_text()).total_length == 3 * self.N - self.N // 2

    def test_oracle_exits_0_on_a_long_edgeless_instance(self, tmp_path):
        # One pair of 1200 grid steps and 1199 pairs that touch nothing: one
        # M-path each, so the oracle's search is as deep as the instance.
        pairs = [((0, 0), (4800, 0))] + [((4 * i, 5), (4 * i, 6)) for i in range(1, 1200)]
        inst = tmp_path / "edgeless.txt"
        inst.write_text("gmmn-instance 1\n" + "".join(
            f"pair {a[0]} {a[1]} {b[0]} {b[1]}\n" for a, b in pairs
        ))
        sol = tmp_path / "sol.txt"
        args = ["solve", "--algorithm", "oracle", "--input", str(inst), "--output", str(sol)]
        assert main(args) == 0
        assert parse_solution(sol.read_text()).total_length == 4800 + 1199
