"""The counter of ``tests/counting.py``, and the check that keeps the count
pins on it: no module of the tests or scripts but ``tests/counting.py``
assigns to an attribute of a module or class of the package.  A pin that
patches a name counts only the calls made through that name, so a
regression that calls the same code through another binding would pass.
A new pin counts the runs of the code with ``counting.runs``; work that
runs no Python frame is counted by one of the patchers there.
"""

from __future__ import annotations

import ast
import cProfile
import pstats
import sys
from contextlib import suppress
from pathlib import Path

import pytest

import anafor.candidates
import anafor.morphology
from anafor.candidates import Candidate, CandidateKind
from anafor.morphology import NameOccurrence, _split_apostrophe, turkish_lower
from anafor.textmodel import Sentence, Token
from counting import builds_token, runs

ROOT = Path(__file__).resolve().parent.parent
PATCHER = "tests/counting.py"


class TestRuns:
    def test_a_function_is_counted_by_any_name(self):
        split = anafor.morphology._split_apostrophe
        with runs(_split_apostrophe) as counted:
            split("Ali'yi")  # a local alias
            anafor.candidates._split_apostrophe("Ayşe")  # another module's import
        assert counted.n == 2

    def test_a_property_counts_its_getter(self):
        ali = NameOccurrence("Ali", 0, True, False, False)
        candidate = Candidate((ali,), CandidateKind.SIMPLE, 0)
        with runs(Candidate.number) as numbers:
            candidate.number, candidate.number, candidate.anchor
        assert numbers.n == 2

    def test_a_weight_tells_apart_the_classes_that_share_a_classmethod(self):
        # Every named tuple's _make runs one code.
        with runs(Token._make) as made, runs(Token._make, builds_token) as tokens:
            Token._make(("Ali", 0, 0, False))
            Sentence._make((0, 0))
        assert (made.n, tokens.n) == (2, 1)

    def test_nested_counters_both_count(self):
        with runs(_split_apostrophe) as outer:
            _split_apostrophe("Ali")
            with runs(_split_apostrophe) as inner:
                _split_apostrophe("Ayşe")
        assert (outer.n, inner.n) == (2, 1)

    @pytest.mark.parametrize("raises", [False, True])
    def test_a_profiler_set_before_still_sees_the_block_and_is_restored(self, raises):
        seen, before = [], sys.getprofile()

        def profiler(frame, event, arg):
            if event == "call":
                seen.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            with suppress(KeyError), runs(_split_apostrophe) as counted:
                _split_apostrophe("Ali")
                if raises:
                    raise KeyError
            restored = sys.getprofile()
        finally:
            sys.setprofile(before)
        assert (counted.n, restored, seen.count("_split_apostrophe")) == (1, profiler, 1)

    def test_cprofile_profiles_again_after_the_block(self):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            with runs(_split_apostrophe) as counted:
                _split_apostrophe("Ali")
            turkish_lower("Ali")
        finally:
            profiler.disable()
        profiled = {function for _, _, function in pstats.Stats(profiler).stats}
        assert counted.n == 1 and "turkish_lower" in profiled


def _anafor_names(tree: ast.Module) -> set[str]:
    """The names a module's imports bind to the package or to its members."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {
                alias.asname or "anafor" for alias in node.names
                if alias.name.split(".")[0] == "anafor"
            }
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "anafor":
                names |= {alias.asname or alias.name for alias in node.names}
    return names


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def package_patches(source: str) -> list[int]:
    """The lines of a module that assign to, or delete, an attribute of a
    module or class of the package: by an assignment or ``del`` of
    ``anafor.x.y`` (or of a name imported from the package), or by a call
    of ``setattr``, ``delattr`` or a fixture's ``setattr`` such as
    ``monkeypatch.setattr``, on such a name or on an ``"anafor."`` path."""
    tree = ast.parse(source)
    package = _anafor_names(tree)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if _root(node.value) in package:
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and node.args:
            function, target = node.func, node.args[0]
            name = getattr(function, "id", None) or getattr(function, "attr", None)
            if name in ("setattr", "delattr") and (
                _root(target) in package
                or isinstance(target, ast.Constant) and str(target.value).startswith("anafor.")
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_only_the_counting_module_patches_the_package():
    sources = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    patches = {}
    for path in sources:
        lines = package_patches(path.read_text(encoding="utf-8"))
        if lines:
            patches[path.relative_to(ROOT).as_posix()] = lines
    assert list(patches) == [PATCHER], patches


@pytest.mark.parametrize(
    "source,lines",
    [
        pytest.param("import anafor.resolver\nanafor.resolver.Document = None\n", [2],
                     id="module-attribute"),
        pytest.param("from anafor.textmodel import Token\nToken._make = None\n", [2],
                     id="class-attribute"),
        pytest.param("import anafor.candidates as c\nfor c.x in []: pass\ndel c.x\n", [2, 3],
                     id="alias-loop-target-and-del"),
        pytest.param("import anafor.corpus\nsetattr(anafor.corpus, 'x', 1)\n"
                     "delattr(anafor.corpus, 'x')\n", [2, 3], id="setattr-and-delattr"),
        pytest.param("import anafor.training\ndef f(monkeypatch):\n"
                     "    monkeypatch.setattr(anafor.training, 'most_recent_max', len)\n",
                     [3], id="monkeypatch"),
        pytest.param("def f(patch):\n    patch.setattr('anafor.corpus.turkish_upper', len)\n",
                     [2], id="monkeypatch-path"),
        pytest.param("import sys\ndef f(monkeypatch):\n"
                     "    monkeypatch.setattr(sys, 'stdin', None)\n", [], id="other-module"),
        pytest.param("from anafor import parse_document\ndoc = parse_document('')\n"
                     "doc.x = parse_document.__name__\n", [], id="reads-and-locals"),
    ],
)
def test_package_patch_detection(source, lines):
    assert package_patches(source) == lines
