"""The bulk ``assemble_document`` and ``corpus._checked_name`` against
verbatim copies of the per-token forms they replaced: the same input gives
an equal Document of the same record types, or the same ValueError message.
The per-token build, ``seed_walk.seed_assemble_document``, takes
per-sentence surfaces and its quote flags from the per-token
``seed_walk._quoted_flags``; the package's build is handed the same
sentences as its two columns.  A numbering that no per-sentence list can
spell, with a gap, a bad start or a length of its own, must be refused
with ``Document.validate``'s message.  A Document's ``tokens``, built from
its columns in bulk, must equal one checked ``Token`` per offset, and its
``sentences``, read off its sentence column, the spans
``seed_walk.sentence_spans`` finds in its surfaces:
``assert_per_token_build`` checks this on parsed documents and both walks'
paraphrases in the shared draw of generated documents in
``test_walk_differential.py``.
"""

from __future__ import annotations

import unicodedata
from itertools import accumulate

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
)
import seed_walk
from conftest import FIXTURE_FILES, assert_layer_passed, fixture_text

# Whitespace by str.split (ASCII, U+001C, U+00A0, U+2003) and look-alikes
# that are not (U+200B, U+FEFF), among plain letters and marks.
ALPHABET = ["a", "ş", "A", '"', ".", " ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u200b",
            "\ufeff", "'", "’", "<"]


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


def columns(sentence_surfaces) -> tuple[list[str], list[int]]:
    """The surface and sentence columns of per-sentence surfaces."""
    surfaces = [surface for sentence in sentence_surfaces for surface in sentence]
    sentence_of = [k for k, sentence in enumerate(sentence_surfaces) for _ in sentence]
    return surfaces, sentence_of


def assert_same_document(sentence_surfaces, pronouns=()) -> None:
    expected = _outcome(seed_walk.seed_assemble_document, sentence_surfaces, pronouns)
    actual = _outcome(assemble_document, *columns(sentence_surfaces), pronouns)
    if isinstance(actual, Document):
        assert all(type(token) is Token for token in actual.tokens)
        assert all(type(sentence) is Sentence for sentence in actual.sentences)
        actual = actual, actual.quoted, actual.sentences  # the derived views against the seed's
    if isinstance(expected[0], Document):  # equality leaves the flags out: compare them apart
        expected = expected[0], expected[0].quoted, expected[1]
    assert actual == expected


@pytest.mark.parametrize("relative", FIXTURE_FILES)
def test_fixture_documents_match_the_per_token_build(relative):
    doc = parse_document(fixture_text(relative))
    sentence_surfaces = [
        [token.surface for token in doc.tokens[first:last + 1]] for first, last in doc.sentences
    ]
    assert_same_document(sentence_surfaces, doc.pronouns)
    assert assemble_document(doc.surfaces, doc.sentence_of, doc.pronouns) == doc


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
    st.lists(st.lists(surfaces, min_size=1, max_size=4), max_size=4),
    st.lists(zeros, max_size=2),
)
@example([["Ali", "", "geldi"]], [])
@example([["Ali", "ge ldi", ""]], [])
@example([["Ali\xa0"], ["\u2003"]], [])
@example([['"', "Ali", "."], ["geldi", "\x1c"]], [])
@example([["a", "b"]], [PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 2)])
def test_generated_surfaces_match_the_per_token_build(sentence_surfaces, pronouns):
    assert_same_document(sentence_surfaces, pronouns)


def numbering_message(surfaces, sentence_of) -> str | None:
    """``Document.validate``'s message for columns of unequal length or a
    numbering that does not start at 0 and step by 0 or 1, else None."""
    if len(surfaces) != len(sentence_of):
        return "token columns differ in length"
    if sentence_of and sentence_of[0] != 0:
        return f"token 0 is in sentence {sentence_of[0]}, not sentence 0"
    for i in range(1, len(sentence_of)):
        if sentence_of[i] - sentence_of[i - 1] not in (0, 1):
            return f"token {i} is in sentence {sentence_of[i]}, after {sentence_of[i - 1]}"
    return None


@st.composite
def numbered_columns(draw):
    """Surfaces and a running sum of steps from -1 to 2, one a token, with
    a number now and then dropped from or added to the end."""
    tokens = draw(st.lists(st.tuples(st.sampled_from(["Ali", "geldi", ".", '"']),
                                     st.integers(-1, 2)), max_size=6))
    surfaces = [surface for surface, _ in tokens]
    sentence_of = list(accumulate(step for _, step in tokens))
    end = draw(st.sampled_from([0, 0, 0, -1, 1]))
    return surfaces, sentence_of[:-1] if end < 0 else sentence_of + [0] * end


@settings(max_examples=500, deadline=None)
@given(numbered_columns())
@example((["Ali", '"'], [0]))
@example((['"'], []))
@example((["Ali", "geldi", ".", "Gitti", "."], [0, 0, 0, 2, 2]))
@example((['"', "Ali", "."], [1, 1, 1]))
def test_a_numbering_is_built_or_refused_with_the_validate_message(columns_drawn):
    # Valid columns build the Document of their sentences; any other is
    # refused with a ValueError, never an IndexError.
    surfaces, sentence_of = columns_drawn
    message = numbering_message(surfaces, sentence_of)
    if message is None:
        sentences = [[] for _ in range(sentence_of[-1] + 1 if sentence_of else 0)]
        for surface, k in zip(surfaces, sentence_of):
            sentences[k].append(surface)
        assert_same_document(sentences)
    else:
        assert _outcome(assemble_document, surfaces, sentence_of) == ("ValueError", message)


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
        Sentence(a, b - 1) for a, b in seed_walk.sentence_spans(document.surfaces)
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
