"""The parser against its reference in seed_walk.py, which reads every tag
through the attribute reader and splits tokens with one regex: each text
must give an equal Document, or a ParseError with the same message, line
and column.

The texts are the fixtures and both walks' paraphrases of them, every
text a parametrized parse test of ``test_corpus.py`` reads, tags
re-spelled in the ways the attribute reader accepts (attribute order,
whitespace runs, ids such as ``+1``, ``007``, `` 1 `` and ``٣``), and,
in the shared draw of ``test_walk_differential.py``, each generated
document and its paraphrases."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_walk
import test_corpus
from anafor import (
    ParseError, baseline_resolve_document, parse_document, resolve_document, serialize_document,
)
from conftest import FIXTURE_FILES, TEXTS, assert_layer_passed, fixture_text


def _parsed(parse, text):
    """The Document ``parse`` makes of ``text``, or its ParseError's
    message, line and column."""
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.column


def assert_same_parse(text: str) -> None:
    assert _parsed(parse_document, text) == _parsed(seed_walk.parse_document, text)


@pytest.mark.parametrize("relative", FIXTURE_FILES)
def test_fixtures_and_their_paraphrases_parse_as_the_reference(relative, names9):
    text = fixture_text(relative)
    assert_same_parse(text)
    doc = parse_document(text)
    for resolved in (resolve_document(doc, names9), baseline_resolve_document(doc, names9)):
        assert_same_parse(serialize_document(resolved.paraphrased))


def corpus_texts() -> list[str]:
    """Every text that a parametrized test of ``test_corpus.TestParseDocument``
    parses: the argument named ``text`` or ``bad``."""
    texts = []
    for function in vars(test_corpus.TestParseDocument).values():
        for mark in getattr(function, "pytestmark", ()):
            names = [name.strip() for name in mark.args[0].split(",")] if mark.args else []
            if mark.name == "parametrize" and {"text", "bad"} & set(names):
                column = names.index("text" if "text" in names else "bad")
                texts += [values[column] if len(names) > 1 else values for values in mark.args[1]]
    return texts


def test_corpus_texts_are_found():
    texts = corpus_texts()
    assert 'Ali <pro id="1" ant="">onu</pro> gördü.' in texts  # test_parse_errors
    assert "«Ali» geldi." in texts  # test_typographic_quote_mark_is_located
    assert len(texts) > 60


@pytest.mark.parametrize("text", corpus_texts() + TEXTS + ["Ali geldi.\nMurat < gitti."])
def test_corpus_texts_parse_as_the_reference(text):
    assert_same_parse(text)


def test_generated_documents_parse_as_the_reference(shared_draw):
    assert_layer_passed(shared_draw, "parse")


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
ID_SPELLINGS = [
    str, "+{}".format, "{:03d}".format, " {} ".format, "-{}".format, "{}>".format,
    lambda n: str(n).translate(ARABIC_INDIC),
]
WORDS = ["Ali", "Ayşe'yi", "geldi", "eve", ",", ".", "!", '"']
SURFACES = ["onu", "kendini", "onları", " ona\t", "kitap", "onu gördü", ""]
KINDS, NUMBERS = ["pers", "refl", "PERSONAL"], ["sg", "pl", "x"]
ANTS = [None, "Ali", "Ali;Ayşe", "", "ali", "Ali;", "A>li", "A<li"]  # < and > end a tag early
SPACES = [" ", "  ", "\t", "\n", " \n\t"]


@st.composite
def tags(draw) -> str:
    """A pro or zero tag, spelled as serialize_document writes it or
    re-spelled; its id, kind, number, ant or surface may fail a check."""
    zero = draw(st.booleans())
    attrs = [("id", draw(st.sampled_from(ID_SPELLINGS))(draw(st.integers(0, 4))))]
    if zero:
        attrs += [("kind", draw(st.sampled_from(KINDS))), ("num", draw(st.sampled_from(NUMBERS)))]
    if (ant := draw(st.sampled_from(ANTS))) is not None:
        attrs.append(("ant", ant))
    if draw(st.booleans()):  # canonical
        body = "".join(f' {key}="{value}"' for key, value in attrs)
    else:
        space, padding = st.sampled_from(SPACES), st.sampled_from(["", *SPACES])
        body = "".join(
            f'{draw(space)}{key}{draw(padding)}={draw(padding)}"{value}"'
            for key, value in draw(st.permutations(attrs))
        ) + draw(padding)
    return f"<zero{body}/>" if zero else f"<pro{body}>{draw(st.sampled_from(SURFACES))}</pro>"


@settings(max_examples=500, deadline=None)
@given(pieces=st.lists(st.one_of(st.sampled_from(WORDS), tags()), max_size=10))
@example(pieces=['<pro id="+1">onu</pro>', '<zero id="007" kind="pers" num="sg"/>', "geldi"])
@example(pieces=['<pro id=" 1 ">onu</pro>', '<zero id="٣" kind="refl" num="pl"/>', "geldi"])
@example(pieces=["Ali", '<pro\tant="Ali"\nid = "1" >onu</pro>', '<zero id="1" kind="pers" num="sg"/>'])
@example(pieces=['<pro id="1" ant="">onu</pro>', '<pro id="2">onu gördü</pro>'])
def test_respelled_tags_parse_as_the_reference(pieces):
    assert_same_parse(" ".join(pieces))
