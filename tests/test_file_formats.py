"""Property tests: the instance and solution files through `gmmn.cli.main`.

Files written by `gmmn generate` and `gmmn solve` re-serialize bit-exactly.
A file with one line mutated (a token replaced, the line dropped,
duplicated, truncated or swapped with another) makes `gmmn solve` or
`gmmn render` exit 0, or exit 1 with exactly one `error:` line; an
exception escaping `main` fails the test.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmmn.cli import (
    GENERATOR_CLASSES,
    main,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

TOKENS = [
    "0", "1", "-1", "7", "40", "99", str(1 << 40), "x", "", "1.5",
    "pair", "path", "edge", "name", "class", "solver", "total_length",
    "ratio", "wall_ms", "gmmn-instance", "gmmn-solution",
]


def run(argv):
    """`main(argv)`'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def instances(draw):
    return (
        draw(st.sampled_from(GENERATOR_CLASSES)),
        draw(st.integers(1, 6)),
        draw(st.sampled_from([8, 12, 20])),
        draw(st.integers(0, 10**6)),
    )


def generate_and_solve(workdir, cls, n, coord_range, seed):
    """Paths of the instance and solution files, or None if no instance."""
    inst = os.path.join(workdir, "inst.txt")
    sol = os.path.join(workdir, "sol.txt")
    code, _ = run(["generate", "--class", cls, "--n", str(n), "--coord-range",
                   str(coord_range), "--seed", str(seed), "--output", inst])
    if code != 0:
        return None
    assert run(["solve", "--input", inst, "--output", sol])[0] == 0
    return inst, sol


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@settings(max_examples=100, deadline=None)
@given(instances())
def test_generated_and_solved_files_round_trip(spec):
    with tempfile.TemporaryDirectory() as workdir:
        paths = generate_and_solve(workdir, *spec)
        assume(paths is not None)
        inst, sol = map(read, paths)
        assert serialize_instance(parse_instance(inst)) == inst
        assert serialize_solution(parse_solution(sol)) == sol
        assert run(["render", "--input", paths[1], "--output",
                    os.path.join(workdir, "out.svg")])[0] == 0


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["token", "drop", "duplicate", "truncate", "swap"]))
    if kind == "token":
        tokens = lines[k].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        lines[k] = " ".join(tokens)
    elif kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "truncate":
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k])))]
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(instances(), st.sampled_from(["solve", "render"]), st.data())
def test_a_mutated_file_exits_0_or_1_with_one_error_line(spec, command, data):
    with tempfile.TemporaryDirectory() as workdir:
        paths = generate_and_solve(workdir, *spec)
        assume(paths is not None)
        target = paths[0] if command == "solve" else paths[1]
        text = data.draw(mutated(read(target)))
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = run([command, "--input", target, "--output",
                         os.path.join(workdir, "out.txt")])
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
