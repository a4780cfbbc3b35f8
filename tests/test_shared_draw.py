"""Generated documents are drawn once, for every layer, by
``test_walk_differential.check_generated_documents``: no other test module
may pass ``quoted_texts()`` or ``annotated_texts()`` to ``@given``.  A new
differential hands its checker to that function, and reads its layer's
report from the ``shared_draw`` fixture, instead of drawing the same
documents again.  ``test_acceptance.py``'s own draw of
``annotated_texts()`` is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GENERATED = {"annotated_texts", "quoted_texts"}
DRAWS = {
    "test_walk_differential.py": GENERATED,
    "test_acceptance.py": {"annotated_texts"},
}


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def given_calls(source: str) -> set[str]:
    """The names of the functions called inside a module's ``@given`` decorators."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and _name(decorator.func) == "given":
                for argument in decorator.args + [k.value for k in decorator.keywords]:
                    names |= {
                        _name(call.func) for call in ast.walk(argument)
                        if isinstance(call, ast.Call)
                    }
    return names


def test_generated_documents_are_drawn_once():
    draws = {}
    for path in sorted(TESTS.glob("*.py")):
        drawn = given_calls(path.read_text(encoding="utf-8")) & GENERATED
        if drawn:
            draws[path.name] = drawn
    assert draws == DRAWS


@pytest.mark.parametrize(
    "source,called",
    [
        pytest.param("@given(st.one_of(annotated_texts(), quoted_texts()))\ndef f(t): pass\n",
                     {"one_of", "annotated_texts", "quoted_texts"}, id="positional"),
        pytest.param("class T:\n    @h.given(text=quoted_texts())\n    def f(self, text): pass\n",
                     {"quoted_texts"}, id="keyword-in-a-class"),
        pytest.param("@settings(max_examples=quoted_texts())\ndef f(): pass\n", set(),
                     id="other-decorator"),
        pytest.param("@given\ndef f(): pass\n", set(), id="bare-given"),
        pytest.param("def f(draw):\n    draw(quoted_texts())\n", set(), id="composite-body"),
    ],
)
def test_given_call_detection(source, called):
    assert given_calls(source) == called
