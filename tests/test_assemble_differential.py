"""The bulk ``assemble_document`` and ``corpus._checked_name`` against
verbatim copies of the per-token forms they replaced: the same input gives
an equal Document of the same record types, or the same ValueError message.
The per-token build takes its quote flags from the per-token
``seed_walk._quoted_flags``.  A Document's ``tokens``, built from its
columns in bulk, must equal one checked ``Token`` per offset, and its
``sentences``, read off its sentence column, the spans ``sentence_spans``
finds in its surfaces: ``assert_per_token_build`` checks this on parsed
documents and both walks' paraphrases in the shared draw of generated
documents in ``test_walk_differential.py``.
"""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from anafor import parse_document
from anafor.corpus import _checked_name
from anafor.morphology import turkish_lower, turkish_upper
from anafor.textmodel import (
    Document,
    Number,
    PronounKind,
    PronounMention,
    Sentence,
    Token,
    assemble_document,
    sentence_spans,
)
import seed_walk
from conftest import FIXTURE_FILES, assert_layer_passed, fixture_text

# Whitespace by str.split (ASCII, U+001C, U+00A0, U+2003) and look-alikes
# that are not (U+200B, U+FEFF), among plain letters and marks.
ALPHABET = ["a", "ş", "A", '"', ".", " ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u200b",
            "\ufeff", "'", "’", "<"]


def seed_assemble_document(sentence_surfaces, pronouns=()):
    # The per-token build, as it was before tokens were built in bulk; the
    # Document holds the columns of its tokens, and the build returns it
    # with its own list of sentences.
    surfaces: list[str] = []
    sentence_of: list[int] = []
    sentences: list[Sentence] = []
    for k, sent_surfaces in enumerate(sentence_surfaces):
        if not sent_surfaces:
            raise ValueError(f"sentence {k} has no tokens")
        first = len(surfaces)
        for surface in sent_surfaces:
            surfaces.append(surface)
            sentence_of.append(k)
        sentences.append(Sentence(first, len(surfaces) - 1))

    quoted = seed_walk._quoted_flags(surfaces, sentence_of)
    tokens = tuple(
        Token(
            surface=surface,
            index=i,
            sentence_index=sentence_of[i],
            quoted=quoted[i],
        )
        for i, surface in enumerate(surfaces)
    )
    ordered = tuple(sorted(pronouns, key=lambda m: m.position))
    doc = Document(
        tuple(token.surface for token in tokens),
        tuple(token.sentence_index for token in tokens),
        tuple(token.quoted for token in tokens),
        ordered,
    )
    doc.validate()
    return doc, tuple(sentences)


def seed_checked_name(name: str) -> str:
    # corpus._checked_name as it was before it tested with split and a regex,
    # with the rules since added that a name is in Unicode NFC and that each
    # of its characters is printable.
    if not name:
        raise ValueError("dictionary entry must be non-empty")
    if any(ch.isspace() for ch in name):
        raise ValueError(f"dictionary entry contains whitespace: {name!r}")
    if any(not ch.isprintable() or ch in ("'", "’", '"', "<", ">", ";", ",", ".", "!", "?",
                                          "…", "«", "»", "“", "”") for ch in name):
        raise ValueError(f"dictionary entry contains a reserved character: {name!r}")
    head = name[0]
    if turkish_upper(head) != head or turkish_lower(head) == head:
        raise ValueError(f"dictionary entry must start uppercase: {name!r}")
    if unicodedata.normalize("NFC", name) != name:
        raise ValueError(f"dictionary entry is not in Unicode NFC: {name!r}")
    return name


def _outcome(build, *args):
    # What a call gives: its result, or its ValueError's message.
    try:
        return build(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_document(sentence_surfaces, pronouns=()) -> None:
    expected = _outcome(seed_assemble_document, sentence_surfaces, pronouns)
    actual = _outcome(assemble_document, sentence_surfaces, pronouns)
    if isinstance(actual, Document):
        assert all(type(token) is Token for token in actual.tokens)
        assert all(type(sentence) is Sentence for sentence in actual.sentences)
        actual = actual, actual.sentences  # the derived view against the seed's list
    assert actual == expected


@pytest.mark.parametrize("relative", FIXTURE_FILES)
def test_fixture_documents_match_the_per_token_build(relative):
    doc = parse_document(fixture_text(relative))
    sentence_surfaces = [
        [token.surface for token in doc.tokens[first:last + 1]] for first, last in doc.sentences
    ]
    assert_same_document(sentence_surfaces, doc.pronouns)
    assert assemble_document(sentence_surfaces, doc.pronouns) == doc


surfaces = st.one_of(
    st.sampled_from(["Ali", "geldi", ".", ",", '"']),
    st.text(alphabet=ALPHABET, max_size=3),
)
zeros = st.builds(
    PronounMention,
    id=st.integers(0, 2),
    kind=st.just(PronounKind.PERSONAL),
    number=st.just(Number.SINGULAR),
    position=st.integers(0, 6),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.lists(surfaces, max_size=4), max_size=4),
    st.lists(zeros, max_size=2),
)
@example([["Ali", "", "geldi"]], [])
@example([["Ali", "ge ldi", ""]], [])
@example([["Ali\xa0"], ["\u2003"]], [])
@example([["Ali"], [], ["a b"]], [])
@example([['"', "Ali", "."], ["geldi", "\x1c"]], [])
@example([["a", "b"]], [PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 2)])
def test_generated_surfaces_match_the_per_token_build(sentence_surfaces, pronouns):
    assert_same_document(sentence_surfaces, pronouns)


def per_token_tokens(doc: Document) -> tuple[Token, ...]:
    # One checked Token per offset of the columns.
    return tuple(
        Token(surface, i, doc.sentence_of[i], doc.quoted[i])
        for i, surface in enumerate(doc.surfaces)
    )


def assert_per_token_build(document: Document) -> None:
    assert document.tokens == per_token_tokens(document)
    assert all(type(token) is Token for token in document.tokens)
    assert document.sentences == tuple(
        Sentence(a, b - 1) for a, b in sentence_spans(document.surfaces)
    )


def test_tokens_match_the_per_token_build(shared_draw):
    # For parsed documents and both walks' paraphrases.
    assert_layer_passed(shared_draw, "assemble")


NAMES = [
    "", " ", "Ali Veli", "Ali\t", "Ali\n", "Ali\x1c", "Ali\xa0", "\u2003Ali",
    "Ali'", "Ali’", 'A"li', "<Ali", " a'", "a'", "ali", "ışık", "İsmail", "Irmak",
    "Ali", "\u200bAli", "\ufeffAli", "1Ali", "Ali;Veli", "A,b", "Ali.", "A!b", "A?b", "Ali…",
    "A»b", "A“b", "Ali\u2060", "Ali\u200e", "Ali\u202a", "A\u202eb", "\u2066Ali", "A\u2062b",
    "Ali\u180e", "A\ufff9b", "Ali\U000e0001", "Ali\ue000", "Ali\x07", "Ali\u0378", "Ali\uffff",
]


@pytest.mark.parametrize("name", NAMES)
def test_name_messages_match_the_per_character_checks(name):
    assert _outcome(_checked_name, name) == _outcome(seed_checked_name, name)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET + ["İ", "ı", "I"], max_size=4))
def test_generated_names_match_the_per_character_checks(name):
    assert _outcome(_checked_name, name) == _outcome(seed_checked_name, name)
