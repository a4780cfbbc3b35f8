"""One reader of files: in ``src/anafor`` only ``textmodel`` calls
``open()``, and only ``textmodel`` and ``cli`` call ``decode_utf8``.  The
gazetteer, weights and lexicon loaders read their files through
``textmodel.read_data_file``; ``cli`` decodes corpus input and stdin.
"""

from __future__ import annotations

import ast

import pytest

from test_imports import SOURCE


def calls(source: str, function: str) -> int:
    """How many calls in ``source`` name ``function``, bare or as an attribute."""
    return sum(
        isinstance(node, ast.Call)
        and function in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source))
    )


@pytest.mark.parametrize(
    "function,callers",
    [("open", {"textmodel.py"}), ("decode_utf8", {"textmodel.py", "cli.py"})],
)
def test_only_these_modules_call(function, callers):
    found = {
        path.name for path in SOURCE.glob("*.py")
        if calls(path.read_text(encoding="utf-8"), function)
    }
    assert found == callers


@pytest.mark.parametrize(
    "source,count",
    [
        ("with open(p) as f: pass\n", 1),
        ("Path(p).open('rb')\nopen\n", 1),
        ("x = decode_utf8(b, p)\ny = textmodel.decode_utf8(b, p)\n", 2),
        ("def opener(): pass\nopener()\n", 0),
    ],
)
def test_call_detection(source, count):
    function = "decode_utf8" if "decode_utf8" in source else "open"
    assert calls(source, function) == count
