"""The document walk's name index against a scan of each window: at every
step of a walk, the window's name occurrences, their simple candidates, the
counts of its pre-apostrophe bases and each window sentence's first phrase
token must equal ``scan_name_occurrences``, a fresh ``Counter`` of the
window and a scan of each sentence as the seed's ``_first_phrase_token``
made (for the pronoun's own sentence, of the tokens left of it)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from anafor import parse_document
from anafor.candidates import Candidate, CandidateKind, SearchScope, scan_name_occurrences
from anafor.morphology import _split_apostrophe
from anafor.resolver import walk_document
from anafor.textmodel import PUNCTUATION_TOKENS
from conftest import fixture_text
from test_acceptance import PROP_DICT, annotated_texts
from test_walk_differential import FIXTURE_FILES, TEXTS, quoted_texts

SCOPES = [0, 1, 3]


def check_document(doc, names, scope) -> None:
    """Walk ``doc``, leaving every third pronoun in place and writing in
    the most recent survivor for the others, and check the index at each
    pronoun."""
    visited = []

    def choose(work, mention, survivors, history):
        # The text ends at the pronoun's token, its last sentence with it;
        # every token left of it is numbered for good.
        assert len(work.tokens) == mention.position + 1
        assert all(token.index == i for i, token in enumerate(work.tokens[:-1]))
        work.validate()
        assert work.sentences[-1].last == len(work.surfaces) - 1
        occurrences = scan_name_occurrences(work, mention, names, scope)
        assert [c.members[0] for c in work.names.simple] == occurrences
        assert work.names.simple == [
            Candidate((occ,), CandidateKind.SIMPLE, work.sentence_index_of(occ.token_index))
            for occ in occurrences
        ]
        sentence = work.sentence_index_of(mention.position)
        start = work.sentences[max(0, sentence - scope.max_back_sentences)].first
        window = work.tokens[start:mention.position]
        assert work.names.bases == Counter(_split_apostrophe(token.surface)[0] for token in window)
        for k in range(max(0, sentence - scope.max_back_sentences), sentence + 1):
            own = work.sentences[k]
            left = range(own.first, min(own.last + 1, mention.position))
            words = [i for i in left if work.tokens[i].surface not in PUNCTUATION_TOKENS]
            assert work.names.first_phrase.get(k) == (words[0] if words else None)
        visited.append(mention.id)
        if mention.id % 3 == 0 or not survivors:
            return None
        return [member.base for member in survivors[-1].members]

    walk_document(doc, names, scope, None, choose)
    assert visited == [mention.id for mention in doc.pronouns]


@pytest.mark.parametrize("relative", FIXTURE_FILES)
@pytest.mark.parametrize("back", SCOPES)
def test_fixtures_match_the_scan(relative, back, names9):
    check_document(parse_document(fixture_text(relative)), names9, SearchScope(back))


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("back", SCOPES)
def test_texts_match_the_scan(text, back, names9):
    check_document(parse_document(text), names9, SearchScope(back))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(annotated_texts(), quoted_texts()), back=st.sampled_from(SCOPES))
def test_generated_documents_match_the_scan(text, back):
    check_document(parse_document(text), PROP_DICT, SearchScope(back))
