import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import qmlines
from qmlines import kernels
from qmlines.cli import main
from qmlines.core import Betweenness, betweenness_of
from qmlines.fileformats import parse_matrix

from oracles import consistent_masks, floyd_warshall_distances

Q4_TEXT = "p s q r\n0 1 1 3\n3 0 2 3\n1 2 0 2\n1 1 2 0\n"
Q4_TRIPLES = "p q r\nr p q\ns q p\nq p s\n"
UNIFORM3 = "a b c\n0 1 1\n1 0 1\n1 1 0\n"
BROKEN = "a b c\n0 5 1\n5 0 1\n1 1 0\n"

# SHA-256 of the whole stdout of `enumerate --n 4 --int 2,3 --json` and of
# `verify-paper --json`.  A change that alters either output on purpose
# updates the constant and names the change in CHANGES.md.
ENUMERATE_4_INT_2_3_SHA256 = "06a14215ac8ff1a4d2ef63e886e591790a759c65dfbdf66ea4cc2a379c043702"
VERIFY_PAPER_SHA256 = "da3c90c119fe687e4c7aad6b98aeead57f714549dd38a63339258c7413244177"

# SHA-256 over (argv, exit code, stdout, stderr) of every run in
# test_every_output_is_pinned.  A change that alters any output on purpose
# updates the constant and names the change in CHANGES.md.
CLI_OUTPUTS_SHA256 = "d7d42499940ddb9837421e774dfa8a84089fca479103123f4225a901136d4f7a"


@pytest.fixture
def q4_file(tmp_path):
    path = tmp_path / "q4.matrix"
    path.write_text(Q4_TEXT)
    return str(path)


@pytest.fixture
def q4_triples_file(tmp_path):
    path = tmp_path / "q4.triples"
    path.write_text(Q4_TRIPLES)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestValidate:
    def test_valid(self, capsys, q4_file):
        code, out, _ = run(capsys, "validate", q4_file)
        assert code == 0
        assert out.strip() == "ok"

    def test_invalid_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text(BROKEN)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "triangle" in out

    def test_unparsable_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text("a b\n0 0.5\n1 0\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "decimal" in err

    def test_negative_entry_is_named(self, capsys, tmp_path):
        path = tmp_path / "negative.matrix"
        path.write_text("a b\n0 -3/2\n1 0\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "line 2, token 2: negative entry '-3/2' (distances are rationals >= 0)" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.matrix")
        assert code == 2

    def test_json_payload(self, capsys, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text(BROKEN)
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 1
        assert payload["ok"] is False
        kinds = {v["kind"] for v in payload["violations"]}
        assert "triangle" in kinds
        assert ["a", "c", "b"] in [v["points"] for v in payload["violations"]]


class TestBetweenness:
    def test_q4(self, capsys, q4_file):
        code, out, _ = run(capsys, "betweenness", q4_file)
        assert code == 0
        assert set(out.strip().splitlines()) == {"p q r", "r p q", "s q p", "q p s"}

    def test_invalid_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text(BROKEN)
        code, _, err = run(capsys, "betweenness", str(path))
        assert code == 2
        assert "not a quasi-metric" in err

    def test_json(self, capsys, q4_file):
        code, payload = run_json(capsys, "betweenness", q4_file)
        assert payload["labels"] == ["p", "s", "q", "r"]
        assert ["p", "q", "r"] in payload["triples"]


class TestLines:
    def test_from_matrix(self, capsys, q4_file):
        code, out, _ = run(capsys, "lines", q4_file)
        assert code == 0
        assert "lines (3): {p,q,r} {p,q,s} {r,s}" in out
        assert "line q p = {p,q,s}" in out

    def test_from_triples(self, capsys, q4_triples_file):
        code, payload = run_json(
            capsys, "lines", "--triples", q4_triples_file, "--labels", "p,s,q,r"
        )
        assert code == 0
        assert payload["line_count"] == 3
        assert payload["has_universal"] is False

    def test_requires_exactly_one_source(self, capsys, q4_file, q4_triples_file):
        code, _, err = run(
            capsys, "lines", q4_file, "--triples", q4_triples_file, "--labels", "p,s,q,r"
        )
        assert code == 2
        code, _, err = run(capsys, "lines")
        assert code == 2

    def test_triples_require_labels(self, capsys, q4_triples_file):
        code, _, err = run(capsys, "lines", "--triples", q4_triples_file)
        assert code == 2
        assert "--labels" in err

    @pytest.mark.parametrize("command", ["lines", "dbe"])
    def test_labels_with_a_matrix_file_are_input_error(self, capsys, q4_file, command):
        # a matrix file names its points; --labels must not be dropped silently
        code, out, err = run(capsys, command, q4_file, "--labels", "x,y,z,w")
        assert code == 2
        assert out == ""
        assert "--labels goes with --triples" in err


class TestDbe:
    def test_q4_fails(self, capsys, q4_file):
        code, out, _ = run(capsys, "dbe", q4_file)
        assert code == 1
        assert "dbe: no" in out

    def test_uniform_satisfies(self, capsys, tmp_path):
        path = tmp_path / "u.matrix"
        path.write_text(UNIFORM3)
        code, out, _ = run(capsys, "dbe", str(path))
        assert code == 0
        assert "dbe: yes" in out


class TestCanon:
    def test_q4_canonical_encoding(self, capsys, q4_triples_file):
        code, payload = run_json(
            capsys, "canon", "--triples", q4_triples_file, "--labels", "p,s,q,r"
        )
        assert code == 0
        assert payload["encoding"] == 271392
        assert len(payload["triples"]) == 4
        assert sorted(payload["relabeling"]) == ["p", "q", "r", "s"]

    def test_nine_points_over_the_relabeling_cap_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "nine.triples"
        path.write_text("a b i\n")
        code, out, err = run(
            capsys, "canon", "--triples", str(path), "--labels", "a,b,c,d,e,f,g,h,i"
        )
        assert code == 2
        assert out == ""
        assert "9! = 362880 relabelings, over the cap of 40320" in err

    def test_a_single_label_is_input_error(self, capsys, q4_triples_file):
        code, out, err = run(capsys, "canon", "--triples", q4_triples_file, "--labels", "p")
        assert (code, out) == (2, "")
        assert "need at least 2 labels, got 'p'" in err

    def test_unknown_label_is_input_error(self, capsys, q4_triples_file):
        code, out, err = run(
            capsys, "canon", "--triples", q4_triples_file, "--labels", "p,s,q,x"
        )
        assert (code, out) == (2, "")
        assert "line 1, token 3: unknown label 'r'" in err


class TestIso:
    def test_isomorphic_pair(self, capsys, tmp_path, q4_triples_file):
        other = tmp_path / "other.triples"
        # the uniqueness-argument relation {abc, bad, cab, dba}
        other.write_text("a b c\nb a d\nc a b\nd b a\n")
        code, payload = run_json(
            capsys,
            "iso",
            str(other),
            q4_triples_file,
            "--labels",
            "a,b,c,d",
            "--labels-b",
            "p,s,q,r",
        )
        assert code == 0
        assert payload["isomorphic"] is True
        assert payload["witness"]["a"] == "p"

    def test_non_isomorphic_exits_one(self, capsys, tmp_path):
        f1 = tmp_path / "one.triples"
        f1.write_text("a b c\n")
        f2 = tmp_path / "two.triples"
        f2.write_text("a b c\nc b a\n")
        code, out, _ = run(capsys, "iso", str(f1), str(f2), "--labels", "a,b,c")
        assert code == 1
        assert "not isomorphic" in out

    def test_different_point_counts_are_input_error(self, capsys, tmp_path, q4_triples_file):
        three = tmp_path / "three.triples"
        three.write_text("a b c\n")
        code, out, err = run(
            capsys, "iso", str(three), q4_triples_file,
            "--labels", "a,b,c", "--labels-b", "p,s,q,r",
        )
        assert (code, out) == (2, "")
        assert "point counts differ: 3 vs 4" in err


class TestRealize:
    def test_quasi(self, capsys, q4_triples_file):
        code, payload = run_json(
            capsys, "realize", "--variant", "quasi",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 0
        assert payload["realizable"] is True
        assert payload["witness"] is not None

    def test_metric_refuted(self, capsys, q4_triples_file):
        code, payload = run_json(
            capsys, "realize", "--variant", "metric",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 1
        assert payload["realizable"] is False
        assert payload["optimal_slack"] == "0"

    def test_int_bounds(self, capsys, q4_triples_file):
        code, _ = run_json(
            capsys, "realize", "--variant", "int:2",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 1
        code, payload = run_json(
            capsys, "realize", "--variant", "int:3",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 0
        assert payload["witness"] is not None

    def test_int_over_the_sweep_cap_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "cycle.triples"
        path.write_text("a b c\nb c a\nc a b\n")
        code, out, err = run(
            capsys, "realize", "--variant", "int:17",
            "--triples", str(path), "--labels", "a,b,c",
        )
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_digraph_refuted(self, capsys, q4_triples_file):
        code, payload = run_json(
            capsys, "realize", "--variant", "digraph",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 1

    def test_digraph_positive(self, capsys, tmp_path):
        path = tmp_path / "cycle.triples"
        path.write_text("a b c\nb c a\nc a b\n")
        code, payload = run_json(
            capsys, "realize", "--variant", "digraph",
            "--triples", str(path), "--labels", "a,b,c",
        )
        assert code == 0
        assert payload["witness_arcs"]

    @staticmethod
    def arcs_betweenness(arcs, labels):
        """The betweenness, as label words, of the digraph on labels with arcs."""
        index = {label: k for k, label in enumerate(labels)}
        n = len(labels)
        d = floyd_warshall_distances(n, [(index[x], index[y]) for x, y in arcs])
        return {
            (labels[x], labels[y], labels[z])
            for x, y, z in permutations(range(n), 3)
            if d[x][y] + d[y][z] == d[x][z]
        }

    def digraph_arcs(self, capsys, tmp_path, words, labels):
        path = tmp_path / "query.triples"
        path.write_text("".join(" ".join(w) + "\n" for w in words))
        _, payload = run_json(
            capsys, "realize", "--variant", "digraph",
            "--triples", str(path), "--labels", ",".join(labels),
        )
        return payload["witness_arcs"]

    def test_digraph_witness_realizes_the_query_under_its_labels(self, capsys, tmp_path):
        # the map holds one digraph per class; the arcs printed must realize
        # the file's own triples, under every order of the same labels
        found = 0
        for mask in consistent_masks(3):
            words = {tuple("abc"[i] for i in t) for t in Betweenness(3, mask).triples}
            for labels in permutations("abc"):
                arcs = self.digraph_arcs(capsys, tmp_path, sorted(words), labels)
                if arcs is not None:
                    found += 1
                    assert self.arcs_betweenness(arcs, labels) == words
        assert found == 6 * 18  # every consistent 3-point relation is one
        # labeled 4-point relations, each the betweenness of a random digraph
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            labels = rng.sample("pqrs", 4)
            arcs = [(x, y) for x, y in permutations(labels, 2) if rng.random() < 0.5]
            if floyd_warshall_distances(4, [(labels.index(x), labels.index(y)) for x, y in arcs]):
                words = self.arcs_betweenness(arcs, labels)
                printed = self.digraph_arcs(capsys, tmp_path, sorted(words), rng.sample("pqrs", 4))
                assert self.arcs_betweenness(printed, labels) == words
                checked += 1

    def lp_witness(self, capsys, tmp_path, words, labels):
        """The quasi LP's witness for the triples words under labels, as
        printed and read back by parse_matrix; the JSON report must carry
        the same labels and rows."""
        path = tmp_path / "query.triples"
        path.write_text("".join(" ".join(w) + "\n" for w in words))
        argv = ["realize", "--variant", "quasi", "--triples", str(path), "--labels", ",".join(labels)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        m = parse_matrix(out.split("witness:\n", 1)[1])
        _, payload = run_json(capsys, *argv)
        assert payload["witness"] == {
            "labels": list(m.labels), "rows": [[str(v) for v in row] for row in m.entries]
        }
        return m

    def test_lp_witness_realizes_the_query_under_its_labels(self, capsys, tmp_path):
        # every consistent 3-point relation under every order of its labels,
        # and Q4 in its file's order
        queries = [
            ({tuple("abc"[i] for i in t) for t in Betweenness(3, mask).triples}, labels)
            for mask in consistent_masks(3)
            for labels in permutations("abc")
        ]
        queries.append(({tuple(line.split()) for line in Q4_TRIPLES.splitlines()}, "psqr"))
        for words, labels in queries:
            m = self.lp_witness(capsys, tmp_path, sorted(words), labels)
            assert m.labels == tuple(labels)
            assert {tuple(m.labels[i] for i in t) for t in betweenness_of(m).triples} == words

    LINE_CAP = ("lines are read from a packed table, one int of up to 1771440 bits per ordered "
                "triple; n=121 means 1727880 triples, about 2^38.5 bytes, over the cap of "
                "134217728 (2^27)")

    @pytest.mark.parametrize(("route", "cap"), [
        ("digraph", "n=121 exceeds the cap of 5: 2^14520 arc sets, one byte of marks each, "
                    "2^14490 GiB"),
        ("int:2", "n=121, K=2 means up to 2^14520 matrices, over the cap of 16777216 (2^24)"),
        ("quasi", "n=121 means 3470281 template rows of 14521 entries, about 2^35.6 in all, "
                  "over the cap of 6000000 (n <= 20)"),
        ("metric", "n=121 means 3477541 template rows of 14521 entries, about 2^35.6 in all, "
                   "over the cap of 6000000 (n <= 20)"),
        ("lines", LINE_CAP),
        ("dbe", LINE_CAP),
    ])
    def test_121_labels_are_refused_in_2_gib(self, tmp_path, route, cap):
        # one triple on 121 points, in a child process whose address space
        # is 2 GiB: the consistency check builds no table as wide as the
        # encoding per triple, each route refuses from its estimate before
        # it builds anything, and a long size is printed as a power.  A
        # route is a realize variant, or the lines or dbe command
        def limited():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        path = tmp_path / "one.triples"
        path.write_text("x0 x1 x2\n")
        labels = ",".join(f"x{i}" for i in range(121))
        src = Path(qmlines.__file__).resolve().parents[1]
        command = [route] if route in ("lines", "dbe") else ["realize", "--variant", route]
        argv = [sys.executable, "-m", "qmlines.cli", *command,
                "--triples", str(path), "--labels", labels]
        done = subprocess.run(
            argv, env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=limited,
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.endswith(f"{cap}\n")

    def test_bad_variant(self, capsys, q4_triples_file):
        code, _, err = run(
            capsys, "realize", "--variant", "euclid",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 2

    def test_bad_int_bound(self, capsys, q4_triples_file):
        code, _, err = run(
            capsys, "realize", "--variant", "int:x",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert code == 2

    # int() alone reads Arabic-Indic digits and underscores: int:٣ answered
    # as K=3 and int:1_0 as K=10
    @pytest.mark.parametrize("token", ["\u0663", "1_0", "+3", "-1", "３", ""])
    def test_int_bound_must_be_ascii_digits(self, capsys, q4_triples_file, token):
        code, out, err = run(
            capsys, "realize", "--variant", f"int:{token}",
            "--triples", q4_triples_file, "--labels", "p,s,q,r",
        )
        assert (code, out) == (2, "")
        assert f"bad variant 'int:{token}'" in err


class TestEnumerate:
    def test_three_points_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--int", "1,2")
        assert code == 0
        assert "classes: 5" in out
        header = out.splitlines()[0].split("\t")
        assert header == [
            "encoding", "size", "lines", "universal", "dbe", "quasi", "metric",
            "int1", "int2", "digraph",
        ]

    def test_three_points_json(self, capsys):
        code, payload = run_json(capsys, "enumerate", "--n", "3")
        assert payload["class_count"] == 5
        encodings = [c["encoding"] for c in payload["classes"]]
        assert encodings == sorted(encodings)
        assert all(c["realizable_quasi"] for c in payload["classes"])

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "5")
        assert code == 2

    def test_int_bound_below_one_is_input_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--int", "0")
        assert (code, out) == (2, "")
        assert "--int bounds must be >= 1" in err

    def test_bad_int_list(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "3", "--int", "2,x")
        assert code == 2

    # int() alone read "1_0" as 10 and printed an int10 column
    @pytest.mark.parametrize("token", ["\u0663", "1_0", "+3", "-1", "３"])
    def test_int_bounds_must_be_ascii_digits(self, capsys, token):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--int", f"2, {token} ")
        assert (code, out) == (2, "")
        assert f"bad --int value {token!r}" in err

    # a value that holds no bound is an error, not the absence of --int
    @pytest.mark.parametrize("value", [",", "", " , ,"])
    def test_int_with_no_bound_is_input_error(self, capsys, value):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--int", value)
        assert (code, out) == (2, "")
        assert f"bad --int value {value!r}" in err

    def test_int_bounds_are_stripped(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--int", " 2 , 3,")
        assert code == 0
        assert out.splitlines()[0].split("\t")[-3:] == ["int2", "int3", "digraph"]

    def test_int_over_the_sweep_cap_is_input_error(self, capsys, monkeypatch):
        # 5^12 matrices at n=4; refused before the sweep visits any
        def no_sweep(*args):
            raise AssertionError("the integer sweep started")

        monkeypatch.setattr(kernels, "_integer_dfs", no_sweep)
        code, out, err = run(capsys, "enumerate", "--n", "4", "--int", "5")
        assert code == 2
        assert out == ""
        assert f"5^12 = {5**12} matrices, over the cap of {2**24}" in err

    def test_four_points_json_is_pinned(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--int", "2,3", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_4_INT_2_3_SHA256

    def test_json_schema(self, capsys):
        # pins the report's field set so a key cannot be added or dropped silently
        code, payload = run_json(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert set(payload) == {"command", "n", "class_count", "classes"}
        assert set(payload["classes"][0]) == {
            "encoding", "triples", "class_size", "line_count", "has_universal",
            "satisfies_dbe", "realizable_quasi", "realizable_metric", "realizable_int",
            "realizable_digraph", "witness",
        }


class TestTwoPoints:
    def test_dbe_on_two_points_via_triples(self, capsys, tmp_path):
        empty = tmp_path / "none.triples"
        empty.write_text("")
        code, out, _ = run(capsys, "dbe", "--triples", str(empty), "--labels", "a,b")
        assert code == 0
        assert "universal line: yes" in out

    def test_validate_two_point_matrix(self, capsys, tmp_path):
        path = tmp_path / "two.matrix"
        path.write_text("a b\n0 1\n1 0\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0


class TestVerifyPaper:
    def test_all_claims_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(l.startswith("PASS") for l in lines)
        assert "all claims pass" in out

    def test_json_shape(self, capsys):
        code, payload = run_json(capsys, "verify-paper")
        assert code == 0
        assert payload["all_pass"] is True
        assert len(payload["claims"]) == 10
        idents = [c["ident"] for c in payload["claims"]]
        assert idents[0] == "q4-betweenness"
        assert idents[-1] == "grid-oracle"

    def test_json_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256


DATA = Path(__file__).resolve().parent.parent / "data"

# small inputs written beside copies of data/*, so that every path the
# commands print is relative
PIN_FILES = {
    "two.matrix": "a b\n0 1\n1 0\n",
    "broken.matrix": BROKEN,
    "token.matrix": "a b\n0 x\n1 0\n",
    "empty.triples": "",
    "one.triples": "a b c\n",
    "other.triples": "a b c\nb a d\nc a b\nd b a\n",
    "unrealizable.triples": "a b d\na c b\n",
    "inconsistent.triples": "a b c\na c b\n",
}

Q4_ARGS = ["--triples", "q4.triples", "--labels", "p,s,q,r"]
CYCLE3_ARGS = ["--triples", "cycle3.triples", "--labels", "a,b,c"]

# every command and every exit code; each runs in text and with --json
PIN_INVOCATIONS = [
    ["validate", "q4.matrix"],
    ["validate", "broken.matrix"],
    ["validate", "token.matrix"],
    ["validate", "missing.matrix"],
    ["betweenness", "q4.matrix"],
    ["betweenness", "broken.matrix"],
    ["betweenness", "two.matrix"],
    ["lines", "q4.matrix"],
    ["lines", *Q4_ARGS],
    ["lines", "q4.matrix", *Q4_ARGS],
    ["lines"],
    ["dbe", "q4.matrix"],
    ["dbe", "two.matrix"],
    ["dbe", "--triples", "empty.triples", "--labels", "a,b"],
    ["canon", *Q4_ARGS],
    ["iso", "q4.triples", "q4.triples", "--labels", "p,s,q,r"],
    ["iso", "other.triples", "q4.triples", "--labels", "a,b,c,d", "--labels-b", "p,s,q,r"],
    ["iso", "one.triples", "cycle3.triples", "--labels", "a,b,c"],
    ["iso", "cycle3.triples", "q4.triples", "--labels", "a,b,c", "--labels-b", "p,s,q,r"],
    ["realize", "--variant", "quasi", *Q4_ARGS],
    ["realize", "--variant", "quasi", "--triples", "unrealizable.triples", "--labels", "a,b,c,d"],
    ["realize", "--variant", "quasi", "--triples", "inconsistent.triples", "--labels", "a,b,c"],
    ["realize", "--variant", "metric", "--triples", "path3.triples", "--labels", "a,b,c"],
    ["realize", "--variant", "metric", *Q4_ARGS],
    ["realize", "--variant", "int:3", *Q4_ARGS],
    ["realize", "--variant", "int:2", *Q4_ARGS],
    ["realize", "--variant", "int:0", *Q4_ARGS],
    ["realize", "--variant", "int:x", *Q4_ARGS],
    ["realize", "--variant", "int:17", *CYCLE3_ARGS],
    ["realize", "--variant", "digraph", *CYCLE3_ARGS],
    ["realize", "--variant", "digraph", *Q4_ARGS],
    ["realize", "--variant", "euclid", *Q4_ARGS],
    ["enumerate", "--n", "3", "--int", "3,2,2"],
    ["enumerate", "--n", "5"],
    ["enumerate", "--n", "3", "--int", "0"],
    ["enumerate", "--n", "3", "--int", "x"],
    ["verify-paper"],
    [],
    ["--help"],
    *[[command, "--help"] for command in (
        "validate", "betweenness", "lines", "dbe", "canon", "iso", "realize",
        "enumerate", "verify-paper",
    )],
]


def test_every_output_is_pinned(capsys, monkeypatch, tmp_path):
    for path in DATA.iterdir():
        shutil.copy(path, tmp_path / path.name)
    for name, text in PIN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    digest = hashlib.sha256()
    for argv in PIN_INVOCATIONS:
        for full in (argv, [*argv, "--json"]):
            try:
                code = main(full)
            except SystemExit as exc:  # argparse: --help, usage errors
                code = exc.code
            captured = capsys.readouterr()
            record = [full, code, captured.out, captured.err]
            digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == CLI_OUTPUTS_SHA256


def test_output_cut_short_by_a_closed_pipe_exits_1_in_silence():
    """`qmlines enumerate --n 4 | head -n 1`: the reader leaves after one
    line of about 141 kB, more than a pipe buffers, so a later write meets
    a closed pipe.  The command exits 1 with nothing on stderr."""
    src = Path(qmlines.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "qmlines.cli", "enumerate", "--n", "4"]
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as process:
        assert process.stdout.readline().startswith("encoding\t")
        process.stdout.close()
        stderr = process.stderr.read()
    assert (process.returncode, stderr) == (1, "")
