"""The input-fuzz contract of the command line: every argv and every input
file ends in the program's own verdict.

`main` returns 0, 1 or 2, or argparse exits 2, and raises nothing else.  An
exit-2 message starts with "error: " and is the program's own: it never
holds Python's text for an int past its limit on digits (4,300 by default).

The argv and the bodies of the matrix and triples files are drawn from small
pools of tokens: numerals in and past the limit, non-ASCII digits, signs,
decimals, odd and repeated labels.  Every example is cheap: at most four
points, no `--n 4` and no bound of 4 (the n=4, K=4 walk has 254,602 leaves).
The run is derandomized, so the suite stays reproducible, and has no
deadline, since wall time drifts between machines.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from qmlines.cli import main

HUGE = "7" * 5000  # past the limit: int() refuses it with Python's text
LONG = "9" * 1500  # readable, but its C(n,3) and powers are not, in decimal
PYTHON_TEXTS = ("Exceeds the limit", "set_int_max_str_digits")

NUMERALS = ["0", "3/2", "1/0", "+2", "-1", "1.5", "١", "３", "1_0", "x", HUGE, f"1/{HUGE}",
            LONG, f"1/{LONG}"]
INTEGERS = ["0", "1", "2", "3", "5", "17", "+3", "-1", "٣", "３", "1_0", "x", "", " ", HUGE, LONG]
ODD_LABELS = ["a", "#", "", "a,", "x y"]
# fractions whose sum has a denominator of 8,002 digits, past what str() prints
WIDE = f"1/1{'0' * 4000}7", f"1/1{'0' * 4000}9"

# mostly well-formed input, so that the commands run to their verdicts too
entries = st.sampled_from(["1", "2", "1", "2", "3"]) | st.sampled_from(NUMERALS)
point_counts = st.integers(2, 4)


@st.composite
def matrix_bodies(draw):
    n = draw(point_counts)
    header = draw(st.just(list("abcd"[:n])) | st.lists(st.sampled_from(ODD_LABELS), max_size=5))
    rows = [[draw(entries) if i != j else "0" for j in range(n)] for i in range(n)]
    rows = rows[: draw(st.sampled_from([n, n, n, n - 1]))]
    return "\n".join(" ".join(row) for row in [header, *rows]) + "\n"


triple_lines = st.lists(st.sampled_from("abcd"), min_size=3, max_size=3) | st.lists(
    st.sampled_from(ODD_LABELS + ["d", "#c", HUGE]), max_size=4
)
triples_bodies = st.lists(triple_lines, max_size=6).map(
    lambda rows: "".join(" ".join(row) + "\n" for row in rows)
)
label_specs = point_counts.map(lambda n: ",".join("abcd"[:n])) | st.sampled_from(
    ["b,a,c", "d,c,b,a", "a", "", "a,a,b", " a , b ,c,", "a,b,#"]
)
bound_specs = st.builds(",".join, st.lists(st.sampled_from(INTEGERS), max_size=3))
files = st.sampled_from(["m.matrix", "t.triples", "t.triples", "u.triples", "missing"])
variants = st.sampled_from(["quasi", "metric", "digraph", "euclid", "int", "int:"]) | st.builds(
    "int:{}".format, st.sampled_from(INTEGERS)
)


def _options(*pairs):
    """Each (flag, strategy) pair present or left out."""
    return st.tuples(*(st.none() | st.tuples(st.just(flag), value) for flag, value in pairs)).map(
        lambda chosen: [token for pair in chosen if pair for token in pair]
    )


commands = st.one_of(
    st.tuples(st.sampled_from(["validate", "betweenness"]), files).map(list),
    st.builds(
        lambda name, rest: [name, *rest],
        st.sampled_from(["lines", "dbe"]),
        _options(("--triples", files), ("--labels", label_specs)).flatmap(
            lambda rest: st.sampled_from([rest, ["m.matrix", *rest]])
        ),
    ),
    st.builds(lambda f, spec: ["canon", "--triples", f, "--labels", spec], files, label_specs),
    st.builds(
        lambda a, b, spec, more: ["iso", a, b, "--labels", spec, *more],
        files, files, label_specs, _options(("--labels-b", label_specs)),
    ),
    st.builds(
        lambda v, f, spec: ["realize", "--variant", v, "--triples", f, "--labels", spec],
        variants, files, label_specs,
    ),
    st.builds(
        lambda n, more: ["enumerate", "--n", n, *more],
        st.sampled_from(INTEGERS), _options(("--int", bound_specs)),
    ),
    # whatever argparse makes of loose tokens
    st.lists(st.sampled_from(["lines", "enumerate", "--n", "--int", "--json", "3", HUGE]),
             max_size=4),
)
argvs = st.builds(lambda argv, json: argv + ["--json"] * json, commands, st.booleans())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """(code, stdout, stderr) of main(argv); code None for argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"argparse exited {exc.code}"
            code = None
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(argv=argvs, matrix=matrix_bodies(), triples=triples_bodies, other=triples_bodies)
@example(argv=["enumerate", "--n", "3", "--int", HUGE], matrix="", triples="", other="")
@example(argv=["enumerate", "--n", LONG], matrix="", triples="", other="")
@example(argv=["validate", "m.matrix"], matrix=f"a b\n0 {HUGE}\n1 0\n", triples="", other="")
@example(
    argv=["validate", "m.matrix"],
    matrix=f"a b c\n0 {WIDE[0]} 5\n1 0 {WIDE[1]}\n1 1 0\n",
    triples="",
    other="",
)
@example(
    argv=["realize", "--variant", f"int:{HUGE}", "--triples", "t.triples", "--labels", "a,b,c"],
    matrix="", triples="a b c\n", other="",
)
def test_every_input_ends_in_the_programs_own_verdict(workdir, argv, matrix, triples, other):
    for name, body in (("m.matrix", matrix), ("t.triples", triples), ("u.triples", other)):
        (workdir / name).write_text(body, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, out, err = _run(argv)
    finally:
        os.chdir(cwd)
    assert code in (None, 0, 1, 2)
    if code == 2:
        assert err.startswith("error: "), err
    assert not any(text in out + err for text in PYTHON_TEXTS), err[:300]


# int() alone reads these as 3: `enumerate --n ٣` printed the 3-point table
@pytest.mark.parametrize("token", ["٣", "３", "+3", "1_0", " 3"])
def test_the_point_count_must_be_ascii_digits(token):
    assert _run(["enumerate", "--n", token]) == (
        2, "", f"error: bad --n value {token!r}; expected a point count, e.g. 4\n"
    )
