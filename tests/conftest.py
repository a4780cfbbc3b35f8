from __future__ import annotations

from pathlib import Path

import pytest

from anafor import NameDictionary, load_dictionary
from anafor.candidates import SearchScope
from anafor.resolver import walk_document

FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLE_NAMES = (
    "Ayşe", "Ahmet", "Fatma", "Ali", "Zerrin", "Murat", "Zeynep", "Tekin", "Ayla",
)


def fixture_text(relative: str) -> str:
    return (FIXTURES / relative).read_text(encoding="utf-8")


def replace_one(doc, mention, names):
    """``doc`` with ``names`` written in for ``mention`` alone: a walk
    that leaves every other pronoun in place.  An empty gazetteer finds
    no candidates, and scope 0 keeps each window to its own sentence."""
    def choose(work, visited, survivors, history):
        return names if visited.id == mention.id else None

    return walk_document(doc, NameDictionary.from_names([]), SearchScope(0), None, choose)


@pytest.fixture(scope="session")
def names9() -> NameDictionary:
    return load_dictionary(FIXTURES / "names9.txt")
