from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from anafor import NameDictionary, load_dictionary
from anafor.candidates import NameIndex, SearchScope
from anafor.resolver import walk_document
from anafor.textmodel import Document

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_FILES = sorted(
    path.relative_to(FIXTURES).as_posix() for path in FIXTURES.glob("*/*.txt")
)

SCOPES = [0, 1, 3]

# Inputs that the generators need not draw: zeros before a closing quote
# mark, which are quoted though the mark's own flag is not, sentences
# led by punctuation, whose first phrase token comes later, and a quote
# that spans two sentences, which the walk's prefix would leave unpaired.
TEXTS = [
    '" Ali geldi . " Ayşe gitti . " Eve <zero id="1" kind="pers" num="sg"/> " dedi .',
    'Ali " eve <zero id="1" kind="refl" num="sg"/> " gitti . Ayşe " <zero id="2" '
    'kind="pers" num="sg"/> " güldü .',
    ', , Ali geldi . , " Ayşe <zero id="1" kind="refl" num="sg"/> gitti " . , ! '
    '<zero id="2" kind="pers" num="sg"/> güldü , Fatma <zero id="3" kind="pers" num="pl"/> .',
    '" Ali geldi . Ayşe <pro id="1">onu</pro> gördü . "',
]

EXAMPLE_NAMES = (
    "Ayşe", "Ahmet", "Fatma", "Ali", "Zerrin", "Murat", "Zeynep", "Tekin", "Ayla",
)


def fixture_text(relative: str) -> str:
    return (FIXTURES / relative).read_text(encoding="utf-8")


def window(doc, pronoun, names, scope=SearchScope()):
    """The window of ``pronoun`` at ``scope``: a new index of ``doc`` and
    the gazetteer ``names``, advanced to the pronoun."""
    return NameIndex(doc, names, scope, None).advance(pronoun)


def snapshot(text):
    """A Document of the walk's working ``text`` as it stands, which keeps
    its ``tokens`` and ``sentences`` from their first read; the working
    text has neither, only columns."""
    doc = Document(*map(tuple, (text.surfaces, text.sentence_of, text.pronouns)))
    # The working flags pair the quote marks of the whole input, a Document's
    # those of its own tokens, and the two differ where a quote opened in
    # the prefix closes past it: the walk's flags are the ones it scores by.
    vars(doc)["quoted"] = tuple(text.quoted)
    return doc


def replace_one(doc, mention, names):
    """``doc`` with ``names`` written in for ``mention`` alone: a walk
    that leaves every other pronoun in place.  An empty gazetteer finds
    no candidates, and scope 0 keeps each window to its own sentence."""
    def choose(window, visited, survivors, history):
        return names if visited.id == mention.id else None

    return walk_document(doc, NameDictionary.from_names([]), SearchScope(0), None, choose)


@st.composite
def quoted_texts(draw) -> str:
    """Generated documents with quote marks before some filler words, so
    quotes pair within and across sentences or stay unpaired."""
    # test_acceptance imports this module, so its generator is read at draw time.
    from test_acceptance import FILLERS, annotated_texts

    text = draw(annotated_texts())
    return re.sub(
        r"\b(?:%s)\b" % "|".join(FILLERS),
        lambda word: ('" ' if draw(st.booleans()) else "") + word.group(0),
        text,
    )


@pytest.fixture(scope="session")
def shared_draw() -> dict[str, str | None]:
    """Each layer's report on the one draw of generated documents,
    ``test_walk_differential.check_generated_documents``, made once for
    every test that reads it."""
    from test_walk_differential import check_generated_documents

    return check_generated_documents()


def assert_layer_passed(shared_draw, layer: str) -> None:
    report = shared_draw[layer]  # a KeyError for a layer that is not checked
    if report is not None:
        pytest.fail(f"the {layer} checks failed on a generated document: {report}",
                    pytrace=False)


@pytest.fixture(scope="session")
def names9() -> NameDictionary:
    return load_dictionary(FIXTURES / "names9.txt")
