"""``scoring.feature_vectors`` against the per-candidate ``feature_vector``
of the seed (seed_walk.py), with every flag exactly a ``bool``, also where
a gazetteer name is spelled as a pronoun form, and the regex apostrophe
split against the seed's ``min``-of-``find`` split.  ``check_document``
runs here on the fixtures and ``TEXTS``, and on the shared draw of
generated documents in ``test_walk_differential.py``."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_walk
from anafor import constrained_candidates, parse_document
from anafor.candidates import SearchScope
from anafor.corpus import NameDictionary
from anafor.morphology import _split_apostrophe
from anafor.resolver import walk_document
from anafor.scoring import feature_vectors
from conftest import (
    FIXTURE_FILES, SCOPES, TEXTS, assert_layer_passed, fixture_text, snapshot, window,
)


def assert_same_vectors(doc, pronoun, survivors, history, seed_history, scope, at) -> None:
    vectors = feature_vectors(pronoun, survivors, history, at)
    assert vectors == [
        seed_walk.feature_vector(doc, pronoun, candidate, survivors, seed_history, scope)
        for candidate in survivors
    ]
    # Exactly bools, though 1 == True: a one-member candidate's flags are
    # copied from its name unchanged.
    assert all(type(flag) is bool for vector in vectors for flag in vector)


def _records(survivors, sentence) -> list[tuple[frozenset[str], int]]:
    # Survivor name sets recorded before, at and after the pronoun's
    # sentence in turn: only the first kind counts as seen before.
    return [(frozenset({"Nobody"}), 0)] + [
        (candidate.base_names, sentence - 1 + i % 3) for i, candidate in enumerate(survivors)
    ]


def _seed_history(records) -> seed_walk.ResolutionHistory:
    history = seed_walk.ResolutionHistory()
    for bases, sentence in records:
        history.record(bases, sentence)
    return history


def check_document(doc, names, scope) -> None:
    """Every pronoun of the parsed text with a non-empty history, then every
    pronoun met on a resolve walk, whose windows hold the names written in
    and whose history and window counts are the walk's own."""
    for pronoun in doc.pronouns:
        at = window(doc, pronoun, names, scope)
        survivors = constrained_candidates(pronoun, at)
        sentence = doc.sentence_index_of(pronoun.position)
        records = _records(survivors, sentence)
        history = {bases for bases, recorded in records if recorded < sentence}
        assert_same_vectors(doc, pronoun, survivors, history, _seed_history(records), scope, at)

    def choose(index, mention, survivors, history):
        # The walk's set holds earlier sentences' names only, so the seed
        # gets them as recorded before the first sentence.
        seed_history = _seed_history((written, -1) for written in history)
        work = snapshot(index.text)
        assert_same_vectors(work, mention, survivors, history, seed_history, scope, index)
        return [member.base for member in survivors[-1].members] if survivors else None

    walk_document(doc, names, scope, None, choose)


@pytest.mark.parametrize("relative", FIXTURE_FILES)
@pytest.mark.parametrize("back", SCOPES)
def test_fixtures_match_the_seed(relative, back, names9):
    check_document(parse_document(fixture_text(relative)), names9, SearchScope(back))


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("back", SCOPES)
def test_texts_match_the_seed(text, back, names9):
    check_document(parse_document(text), names9, SearchScope(back))


def test_generated_documents_match_the_seed(shared_draw):
    assert_layer_passed(shared_draw, "scoring")


def test_a_pronoun_form_spelled_as_a_name_counts_towards_repetition():
    # "O" is a gazetteer entry spelled as the pronoun "o": a bare "O" is
    # never a name, yet it repeats the base of the name "O'nu".
    names = NameDictionary.from_names(["O", "Ahmet"])
    doc = parse_document("O geldi . Ahmet O'nu gördü . <pro id=\"1\">o</pro> güldü .")
    (pronoun,) = doc.pronouns
    at = window(doc, pronoun, names)
    survivors = constrained_candidates(pronoun, at)
    assert [candidate.base_names for candidate in survivors] == [{"Ahmet"}, {"O"}]
    vectors = feature_vectors(pronoun, survivors, set(), at)
    assert [vector.repetition for vector in vectors] == [False, True]
    check_document(doc, names, SearchScope())


@settings(max_examples=1000)
@given(surface=st.text(alphabet="'’İışaA", max_size=8))
@example(surface="")
@example(surface="'’")
@example(surface="’'")
@example(surface="'Ayşe")
@example(surface="Ayşe'")
@example(surface="Ayşe’")
@example(surface="İsmail’in'di")
@example(surface="Işık'ın’ı")
def test_apostrophe_split_matches_the_seed(surface):
    assert _split_apostrophe(surface) == seed_walk._split_apostrophe(surface)
