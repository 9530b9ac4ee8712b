import contextlib
import io
import re
from pathlib import Path

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
