"""Every Document the package builds comes from ``textmodel.assemble_document``,
which validates it: no other ``Document(...)`` call is in ``src/anafor``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "anafor"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def document_calls(node: ast.AST, where: str = "") -> list[str]:
    """The dotted name of the function or class around each ``Document(...)``
    call under ``node``, innermost first; a module-level call gives ``""``."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "Document":
            sites.append(where)
        inner = f"{where}.{child.name}".lstrip(".") if isinstance(child, _SCOPES) else where
        sites += document_calls(child, inner)
    return sites


def test_only_assemble_document_builds_a_document():
    sites = [
        (path.name, where)
        for path in sorted(SOURCE.glob("*.py"))
        for where in document_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("textmodel.py", "assemble_document")]


@pytest.mark.parametrize(
    "source,sites",
    [
        ("def f():\n    return Document([], [], [])\n", ["f"]),
        ("class A:\n    def m(self):\n        def g():\n            textmodel.Document()\n",
         ["A.m.g"]),
        ("doc = Document((), (), ())\n", [""]),
        ("def f():\n    return assemble_document([], []), ResolvedDocument((), None)\n", []),
    ],
)
def test_document_call_detection(source, sites):
    assert document_calls(ast.parse(source)) == sites
