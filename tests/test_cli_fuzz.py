"""Fuzz the subcommands' inputs: any input ends in a documented exit code.

Every run must return 0, 2 (malformed input), 3 (bad vertex index), 4
(construction failure) or 5 (verification counterexample) from cli.main, with
no exception escaping, and a failing run prints nothing on stdout and exactly
one `error:` line on stderr.  The integer flags and `--type` labels are
drawn so that no accepted run exceeds rank 30 or `verify-type-a --n 4`.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from companion_bases.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(
        st.sampled_from(["n", "b", "arrows", "type", "quiver", "gamma"]) | st.text(max_size=4),
        children,
        max_size=5,
    ),
    max_leaves=30,
)


@st.composite
def skew_matrices(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 7))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            b = draw(st.integers(-3, 3))
            rows[x][y], rows[y][x] = b, -b
    return {"n": n, "b": rows}


@st.composite
def basis_documents(draw):
    # B2 and A0 are not Dynkin types this package knows
    label, rank = draw(
        st.sampled_from(
            [("A1", 1), ("A2", 2), ("A3", 3), ("A5", 5), ("D4", 4), ("D5", 5), ("E6", 6)]
            + [("B2", 2), ("A0", 1)]
        )
    )
    quiver = draw(skew_matrices(rank) | json_values)
    row = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    gamma = draw(st.lists(row, min_size=rank, max_size=rank) | json_values)
    return {"type": label, "quiver": quiver, "gamma": gamma}


documents = (
    json_values.map(json.dumps)
    | skew_matrices().map(json.dumps)
    | basis_documents().map(json.dumps)
    | st.text(max_size=40)
)


def run_with_stdin(args, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check(args, text):
    code, out, err = run_with_stdin(args, text)
    assert code in EXIT_CODES
    if code != 0:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(documents, st.integers(-2, 8))
def test_mutate_survives_any_input(text, k):
    check(["mutate", "--k", str(k)], text)


@FUZZ
@given(documents)
def test_recognize_survives_any_input(text):
    check(["recognize"], text)


@FUZZ
@given(documents)
def test_companion_survives_any_input(text):
    check(["companion"], text)


@FUZZ
@given(documents)
def test_dvectors_survives_any_input(text):
    check(["dvectors"], text)


# runs of characters int() or str.isdigit() would take but the CLI must not:
# non-ASCII digits, signs, underscores and spaces; no ASCII digit
junk = st.text(alphabet=" +-_\u0661\u0663\u00b2\u07c1", max_size=2)


def integer_texts(low, high):
    """An ASCII integer in [low, high], alone or run into junk, or junk alone."""
    number = st.integers(low, high).map(str)
    return number | st.tuples(junk, number, junk).map("".join) | junk


# a rank above 30 is never accepted: the only ASCII digit in the junk ranks is 0
type_labels = st.tuples(
    st.sampled_from("ADEXade "),
    integer_texts(-2, 30) | st.text(alphabet="0\u0661\u0663\u00b2", max_size=3),
    junk,
).map("".join)


@FUZZ
@given(st.sampled_from(["recognize", "companion", "mutate"]), type_labels, integer_texts(-2, 31))
def test_type_labels_survive_any_text(command, label, k):
    extra = [f"--k={k}"] if command == "mutate" else []
    check([command, f"--type={label}", *extra], "")


@FUZZ
@given(
    st.sampled_from(["exhaustive", "sample"]),
    integer_texts(-1, 4),
    integer_texts(-3, 9),
    integer_texts(-1, 3),
    integer_texts(-1, 1),
)
def test_verify_type_a_survives_any_integer_flags(mode, n, seed, walk_length, jobs):
    argv = [f"--mode={mode}", f"--n={n}", f"--seed={seed}", f"--walk-length={walk_length}"]
    check(["verify-type-a", *argv, f"--jobs={jobs}"], "")
