"""The demo scripts and the README's examples are living documentation: they must keep
running."""

import re
import runpy
from pathlib import Path

import pytest

import dotparse

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_demo_scripts_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every demo narrates something


def test_readme_examples_exist():
    assert len(README_EXAMPLES) >= 3


@pytest.mark.parametrize("number", range(len(README_EXAMPLES)), ids=lambda n: f"block{n + 1}")
def test_readme_example_runs_cleanly(number, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = compile(README_EXAMPLES[number], f"README.md python block {number + 1}", "exec")
    exec(code, {"__name__": "__main__"})  # a fresh namespace per block
    out = capsys.readouterr().out
    if number == 0:  # the quick start's comment shows both views
        assert "PaymentInProgress" in out and "PaymentDone" in out
    elif number == 2:  # the "Diagrams" example prints a whole DOT diagram
        diagram = dotparse.parse_dot(out)
        assert diagram.directed and diagram.subgraphs
