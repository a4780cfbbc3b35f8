"""README.md's python examples, run in order in one namespace, in a
directory that holds the files they read: ``names.txt``, the nine-name
gazetteer of the fixtures, and ``story.txt``, the mini corpus.  The
comparison table they print must read the mini corpus's recall: 90.0% for
the system against 63.3% for the baseline."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    shutil.copy(FIXTURES / "names9.txt", tmp_path / "names.txt")
    shutil.copy(FIXTURES / "minicorpus" / "minicorpus.txt", tmp_path / "story.txt")
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert re.search(r"^ +baseline +system +delta$", out, re.M)
    assert re.search(r"^recall +63\.3% +90\.0% +\+26\.7$", out, re.M)
