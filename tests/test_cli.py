import contextlib
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
        # int() reads any decimal digits, zeros of other scripts included
        assert invoke(capsys, "reduce", "x\u0663 x0^-\u0660\u0660\u0660\u0660\u06601") == (
            0, "x3 x0^-1\n", "")

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
