import os
import subprocess
import sys

import pytest

import thompsonf
from thompsonf.cli import run


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
