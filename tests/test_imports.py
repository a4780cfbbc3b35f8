"""Every name a module of ``src/anafor`` imports is used in that module.

``__init__.py`` is exempt: its imports are the package's public names.
The imports in ``TRACER_ONLY`` are unused, and each must be a site that
``perfbench/tracing.py`` patches, so the list holds no stray import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "anafor"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")

# Imported but unused: exactly these, and only while the tracer needs them.
TRACER_ONLY = {
    ("resolver.py", "feature_vector"),  # patched by perfbench/tracing.py
    ("training.py", "constrained_candidates"),  # patched by perfbench/tracing.py
    ("training.py", "replace_mention"),  # patched by perfbench/tracing.py
    ("training.py", "feature_vector"),  # patched by perfbench/tracing.py
    ("candidates.py", "match_name"),  # patched by perfbench/tracing.py
}
TRACING = SOURCE.parent.parent / "perfbench" / "tracing.py"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation names its types inside a string.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return _imported(tree) - _used(tree)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((SOURCE / module).read_text(encoding="utf-8"))
    assert unused == {name for listed, name in TRACER_ONLY if listed == module}


def tracer_targets(source: str) -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs that a tracer's ``TARGETS`` patch."""
    (targets,) = (
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    )
    return {(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in targets.elts}


def test_each_tracer_only_import_is_a_site_the_tracer_patches():
    patched = tracer_targets(TRACING.read_text(encoding="utf-8"))
    for module, name in TRACER_ONLY:
        assert (f"anafor.{module.removesuffix('.py')}", name) in patched


@pytest.mark.parametrize(
    "source,unused",
    [
        ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n", {"field"}),
        ("from typing import Iterator\ndef f() -> 'Iterator[int]': pass\n", set()),
        ("import os.path\nos.getcwd()\n", set()),
        ("from x import y as z\n", {"z"}),
        ("from __future__ import annotations\n", set()),
    ],
)
def test_unused_import_detection(source, unused):
    assert unused_imports(source) == unused
