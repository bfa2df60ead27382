"""Tests for serialization, generators, dispatch, rendering, and bench."""

import random
import re

import pytest

from gmmn.cli import (
    BenchReport,
    FormatError,
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
from gmmn.errors import CapExceeded, GenerationFailed
from gmmn.geometry import Point, TerminalPair
from gmmn.instance_graph import build_intersection_graph
from gmmn.oracle import solve_bruteforce


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
