"""README's "Library use" snippet runs as written and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_prints_its_documented_results():
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    # Each print(...) line documents its result in a trailing comment.
    expected = [
        str(ast.literal_eval(line.split("#", 1)[1].strip()))
        for line in snippet.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    assert len(expected) == 2
    assert out.getvalue().splitlines() == expected
