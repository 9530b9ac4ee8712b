import contextlib
import io
import re
import shlex
from pathlib import Path

from thompsonf.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(\S+)\s*$", code, re.M)
    assert expected == ["x0", "x0", "M3", "32/17"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_examples_print_their_comments():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    examples = re.findall(r"^thompsonf (.*?)#\s*->\s*(.*?)\s*$", block, re.M)
    assert [out for _, out in examples] == ["x2", "M7", "(..)|..", "ball(6): 1381 elements"]
    for command, expected in examples:
        # optional parts in brackets would write files; run without them
        argv = shlex.split(re.sub(r"\[.*?\]", "", command))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        assert out.getvalue().splitlines()[0] == expected
