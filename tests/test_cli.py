import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thompsonf
from thompsonf.cli import run
from thompsonf.words import MAX_GENERATOR_INDEX, MAX_WORD_LETTERS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduceClassifyDiagram:
    def test_reduce(self, capsys):
        code, out, err = invoke(capsys, "reduce", "x1 x3 x1^-1")
        assert (code, out, err) == (0, "x2\n", "")

    def test_reduce_identity(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "x0 x0^-1")
        assert (code, out) == (0, "e\n")

    def test_classify(self, capsys):
        code, out, _ = invoke(capsys, "classify", "x2 x0^-1")
        assert (code, out) == (0, "M7\n")

    def test_classify_unreduced_spelling(self, capsys):
        # classification happens after reduction
        code, out, _ = invoke(capsys, "classify", "x1 x1^-1")
        assert (code, out) == (0, "M1\n")

    def test_classify_deep_word(self, capsys):
        # classification builds no forest, so word depth meets no recursion limit
        code, out, _ = invoke(capsys, "classify", "x0^2000")
        assert (code, out) == (0, "M3\n")

    def test_diagram(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "x0")
        assert (code, out) == (0, "(..)|..\n")

    def test_diagram_deep_word(self, capsys):
        # forests are strings, so a deep comb meets no recursion limit
        code, out, err = invoke(capsys, "diagram", "x0^2000")
        expected = "(" * 2000 + "." + ".)" * 2000 + "|" + "." * 2001
        assert (code, out, err) == (0, expected + "\n", "")

    def test_diagram_widest_word(self, capsys):
        # x0 x1 ... x9999 is a right comb over 10,001 leaves
        word = " ".join(f"x{i}" for i in range(MAX_WORD_LETTERS))
        code, out, err = invoke(capsys, "diagram", word)
        expected = "(." * 10000 + "." + ")" * 10000 + "|" + "." * 10001
        assert (code, out, err) == (0, expected + "\n", "")
        assert len(out) == 40_004

    def test_diagram_dot_file(self, capsys, tmp_path):
        path = tmp_path / "d.dot"
        code, out, _ = invoke(capsys, "diagram", "x2 x0^-1", "--dot", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("graph diagram {")
        assert out == "..(..)|(..)..\n"


class TestBallDensityHistogram:
    def test_ball_summary(self, capsys):
        code, out, _ = invoke(capsys, "ball", "1")
        assert (code, out) == (0, "ball(1): 5 elements\n")

    def test_ball_csv(self, capsys, tmp_path):
        path = tmp_path / "ball.csv"
        code, _, _ = invoke(capsys, "ball", "1", "--csv", str(path))
        assert code == 0
        assert path.read_text() == "element\ne\nx0\nx0^-1\nx1\nx1^-1\n"

    def test_density(self, capsys):
        code, out, _ = invoke(capsys, "density", "1")
        assert code == 0
        assert out == (
            "label,vertices,oriented_edges,density_num,density_den\n"
            "ball(1),5,8,8,5\n"
        )

    def test_density_with_drop(self, capsys, tmp_path):
        path = tmp_path / "density.csv"
        code, out, _ = invoke(
            capsys, "density", "1", "--drop", "M1", "--csv", str(path)
        )
        assert code == 0
        expected = (
            "label,vertices,oriented_edges,density_num,density_den\n"
            "ball(1)-drop(M1),4,0,0,1\n"
        )
        assert out == expected
        assert path.read_text() == expected

    @pytest.mark.parametrize("spelling, canonical", [
        ("M2,M1", "M1,M2"),
        ("M1,M1", "M1"),
        ("M7,M1,M7,M3", "M1,M3,M7"),
    ])
    def test_drop_label_names_each_class_once_in_order(self, capsys, spelling, canonical):
        # the same dropped set prints the same row, however it was spelled
        code, out, _ = invoke(capsys, "density", "2", "--drop", spelling)
        assert code == 0
        label = "ball(2)-drop(" + canonical.replace(",", "+") + "),"
        assert out.splitlines()[1].startswith(label)
        assert invoke(capsys, "density", "2", "--drop", canonical) == (0, out, "")

    def test_histogram(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, out, _ = invoke(capsys, "histogram", "1", "--csv", str(path))
        assert code == 0
        expected = "class,count\nM1,1\nM2,1\nM3,1\nM4,1\nM5,1\nM6,0\nM7,0\n"
        assert out == expected
        assert path.read_text() == expected

    @pytest.mark.parametrize("verb", ["ball", "density", "histogram", "check"])
    def test_limit_is_documented(self, capsys, verb):
        doc = " ".join(thompsonf.cli.__doc__.split())
        assert "ball, density, histogram and check also take --limit N" in doc
        with pytest.raises(SystemExit):
            run([verb, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--limit N build no ball of more than N elements (default 1000000)" in out

    def test_byte_identical_reruns(self, capsys):
        first = invoke(capsys, "histogram", "2")
        second = invoke(capsys, "histogram", "2")
        assert first == second


class TestCheck:
    def test_partition(self, capsys):
        code, out, _ = invoke(capsys, "check", "partition", "--radius", "3")
        assert code == 0
        assert "0 violations" in out
        assert "radius 3" in out

    def test_closures(self, capsys):
        code, out, _ = invoke(capsys, "check", "closures", "--radius", "6")
        assert code == 0
        assert "0 violations" in out
        assert "1381 elements" in out

    def test_lemma_del_reports_consistently(self, capsys):
        # the advertised deletion bound has counterexamples (see
        # test_folner), so the exit code must track the violation count
        code, out, _ = invoke(
            capsys, "check", "lemma-del", "--radius", "2",
            "--samples", "50", "--seed", "0",
        )
        summary = out.strip().splitlines()[-1]
        count = int(summary.split(":")[1].split()[0])
        assert code == (1 if count else 0)
        assert f"{count} violations" in summary

    def test_lemma_del_counts_corrected_bound_violations(self, capsys):
        _, out, _ = invoke(
            capsys, "check", "lemma-del", "--radius", "2",
            "--samples", "50", "--seed", "0",
        )
        assert out.splitlines()[-2] == (
            "corrected bound density - 8|K|/|S|: 0 violations"
        )

    def test_seeded_check_is_reproducible(self, capsys):
        args = ("check", "lemma-del", "--radius", "2", "--samples", "20",
                "--seed", "7")
        assert invoke(capsys, *args) == invoke(capsys, *args)


# stdout digests: two commands that print exact densities, where a shifted
# Fraction in any violation line or drop row changes the digest, and the
# check verbs, whose passes over the ball must print what the
# product-based oracles in `classify` print
@pytest.mark.parametrize("argv, code, digest", [
    (("check", "lemma-del", "--radius", "3", "--samples", "300", "--seed", "0"), 1,
     "0b01bf10b748f28c32fb1373fdac2665ad9bf3d3086f069d59fa96d4d604585f"),
    (("density", "8", "--drop", "M2"), 0,
     "c8c6f27c2d7db47789c3d45da08b3d5606be15f0b56e18eefecb50ae70a95986"),
    (("check", "closures", "--radius", "8"), 0,
     "c030f1e1e96776259b6e672c4198131a2e891f57ae889896039049e5d29cf2b6"),
    (("check", "partition", "--radius", "8"), 0,
     "f83219cdea97e64709324758fcdef162c8b5bc54732dc677d209348f8cdfb0a9"),
])
def test_density_outputs_are_pinned(capsys, argv, code, digest):
    result, out, err = invoke(capsys, *argv)
    assert (result, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


class TestErrors:
    def test_malformed_word(self, capsys):
        code, out, err = invoke(capsys, "reduce", "x1 y2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "y2" in err

    @pytest.mark.parametrize("word", ["x0^10001", "x0^5000 x1^5001"])
    def test_word_over_letter_cap(self, capsys, word):
        code, out, err = invoke(capsys, "reduce", word)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert word.split()[-1] in err

    @pytest.mark.parametrize("verb", ["reduce", "diagram"])
    def test_generator_index_over_cap(self, capsys, verb):
        code, out, err = invoke(capsys, verb, "x0 x10001")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "x10001" in err

    @pytest.mark.parametrize(
        "verb, word", [("reduce", "x0^" + "1" * 5000), ("diagram", "x" + "9" * 5000)]
    )
    def test_digits_beyond_int_conversion_limit(self, capsys, verb, word):
        # the caps are applied before int(), which refuses over 4300 digits
        code, out, err = invoke(capsys, verb, word)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "position 1" in err
        assert "4300" not in err

    def test_leading_zeros_are_not_digits_over_the_cap(self, capsys):
        padded = "x" + "0" * 5000 + "1^-" + "0" * 5000 + "3"
        assert invoke(capsys, "reduce", padded) == (0, "x1^-3\n", "")
        # int() reads any decimal digits, but the grammar takes only ASCII ones
        for word in ("x\u0663 x0^-1", "x0 x0^-\u0660\u0660\u0660\u0660\u06601"):
            code, out, err = invoke(capsys, "reduce", word)
            assert (code, out) == (2, "")
            assert err.startswith("error: malformed token") and err.count("\n") == 1

    def test_generator_index_at_cap(self, capsys):
        assert invoke(capsys, "reduce", "x10000") == (0, "x10000\n", "")
        code, out, _ = invoke(capsys, "diagram", "x10000")
        assert code == 0
        assert out.count(".") == 2 * 10002

    def test_unknown_class_in_drop(self, capsys):
        code, _, err = invoke(capsys, "density", "1", "--drop", "M9")
        assert code == 2
        assert err.startswith("error: ")

    def test_element_limit(self, capsys):
        code, _, err = invoke(capsys, "ball", "6", "--limit", "10")
        assert code == 2
        assert err.startswith("error: ")
        assert "radius" in err

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["reduce", "-x0"], ["reduce"], ["ball", "three"], ["check", "closures"],
        ["density", "2", "--frobnicate"], ["frobnicate"],
    ])
    def test_argument_errors_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(argv)
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["ball", "3", "--csv"], ["histogram", "2", "--csv"], ["density", "2", "--csv"],
        ["diagram", "x0", "--dot"],
    ])
    def test_unwritable_output_prints_nothing(self, capsys, tmp_path, argv):
        code, out, err = invoke(capsys, *argv, str(tmp_path / "missing" / "out"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("radius, limit", [("0", "0"), ("3", "-3")])
    def test_limit_below_one_rejected(self, capsys, radius, limit):
        code, out, err = invoke(capsys, "ball", radius, "--limit", limit)
        assert (code, out) == (2, "")
        assert err == f"error: element limit must be at least 1, got {limit}\n"

    def test_negative_sample_count_rejected(self, capsys):
        code, out, err = invoke(
            capsys, "check", "lemma-del", "--radius", "2", "--samples", "-5"
        )
        assert (code, out) == (2, "")
        assert err == "error: sample count must be non-negative, got -5\n"

    def test_dropping_everything(self, capsys):
        code, _, err = invoke(
            capsys, "density", "0", "--drop", "M1,M2,M3,M4,M5,M6,M7"
        )
        assert code == 2
        assert "undefined" in err


def test_module_entry_point():
    # the child must import the same package as this process, which pytest
    # may have found through its own pythonpath setting
    src = os.path.dirname(os.path.dirname(thompsonf.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-m", "thompsonf", "reduce", "x1 x0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x0 x2\n"


_LEAF_CHILD = """
import contextlib, io, sys
import thompsonf
print("thompsonf.rewriting" in sys.modules)
from thompsonf import cli, folner
verbs = ["reduce x0", "classify x0", "ball 2", "histogram 2",
         "check partition --radius 2", "check closures --radius 2", "density 2 --drop M1"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(verb.split()) for verb in verbs[:-1]]
    exact = [m in sys.modules for m in ("fractions", "decimal", "numbers")]
    codes.append(cli.run(verbs[-1].split()))
print(codes, exact,
      [m in sys.modules for m in ("thompsonf.diagrams", "dataclasses", "inspect", "fractions",
                                  "thompsonf.rewriting")])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run("check lemma-del --radius 2 --samples 50".split())
import dataclasses
from thompsonf.deletion_report import DeletionBoundReport
report = folner.deletion_bound_check(folner.ball(2), folner.ElementSet.of([thompsonf.IDENTITY]))
report = dataclasses.replace(report, density_after=report.density_after - 9)
print(code, type(report) is DeletionBoundReport, report.density_after,
      "thompsonf.diagrams" in sys.modules)
cli.run(["diagram", "x0"])
print("thompsonf.diagrams" in sys.modules, "thompsonf.rewriting" in sys.modules)
"""


def test_only_the_diagram_verb_loads_the_diagram_model():
    # a fresh child, with the environment test_module_entry_point builds;
    # it also pins that only a verb that makes a Fraction loads `fractions`,
    # and that neither the package nor any verb loads `thompsonf.rewriting`
    src = os.path.dirname(os.path.dirname(thompsonf.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", _LEAF_CHILD], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False\n"
        "[0, 0, 0, 0, 0, 0, 0] [False, False, False] [False, False, False, True, False]\n"
        "1 True -15/2 False\n(..)|..\nTrue False\n"
    )


_DIAGRAM_CHILD = """
import contextlib, io, sys
from thompsonf import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["diagram", "x0", "--dot", sys.argv[1]])
print(code, "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_the_diagram_verb_loads_no_dataclasses(tmp_path):
    # the diagram model's value types are slotted classes, as the
    # normal-form stack's are
    src = os.path.dirname(os.path.dirname(thompsonf.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", _DIAGRAM_CHILD, str(tmp_path / "x0.dot")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False False\n"
    assert (tmp_path / "x0.dot").read_text(encoding="utf-8").startswith("graph diagram {")


# words for the exit-code contract: runs of small or near-cap indices,
# long enough to build deep forests, and at most one bad token among them
_runs = st.builds(
    "x{}^{}".format,
    st.one_of(st.integers(0, 12), st.integers(MAX_GENERATOR_INDEX - 2, MAX_GENERATOR_INDEX)),
    st.integers(-150, 150).filter(bool),
)
_bad_tokens = st.sampled_from([
    f"x{MAX_GENERATOR_INDEX + 1}", f"x{MAX_GENERATOR_INDEX + 2}^-3",
    f"x0^{MAX_WORD_LETTERS + 1}", f"x1^-{MAX_WORD_LETTERS + 1}", "x0^0",
    "y2", "x", "x-1", "x0^", "x0^^1", "X1", "x0^+1", "x1.5", "e e",
    "x" + "9" * 5000, "x0^" + "1" * 5000,
    # digits of other scripts: Arabic-Indic 3 and 2, fullwidth 3, Devanagari 1
    "x\u0663", "x1^-\u0662", "x\uff13", "x2^\u0967",
])
_words = st.one_of(
    st.builds(
        lambda runs, bad, at: " ".join(runs[:at] + bad + runs[at:]),
        st.lists(_runs, max_size=10),
        st.lists(_bad_tokens, max_size=1),
        st.integers(0, 10),
    ),
    # one-token words that argparse may read as an option
    st.sampled_from(["-x0", "-1", "-x1^-2", "--x0", "-e", "-", "--", "-0.5"]),
)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["reduce", "classify", "diagram"]), _words)
def test_exit_code_contract_on_generated_words(verb, word):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([verb, word])
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
