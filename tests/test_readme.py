"""The README's library quick tour runs as written, so the README names no
function the package no longer has."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README}:quick tour", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.rstrip().endswith("True 10.5")
