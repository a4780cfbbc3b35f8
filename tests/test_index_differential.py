"""The document walk's name index against a scan of each window: at every
step of a walk, the window's name occurrences, their simple candidates, the
counts of its pre-apostrophe bases that are gazetteer entries and each
window sentence's first phrase token must equal
``seed_walk.scan_name_occurrences``, a fresh ``Counter`` of the
window and a scan of each sentence as the seed's ``_first_phrase_token``
made (for the pronoun's own sentence, of the tokens left of it), and the
index keeps first phrase tokens of window sentences only.  The
extracted candidates, whose compounds the index grows as names enter it,
must equal ``seed_walk.extract_candidates``, which merges each window's
names afresh.  The index keeps its candidates in one list per number, a
rule that ``Candidate.number`` states too: each list must hold exactly the
reference's candidates of its number, in order, and the two merged in
``(anchor, size)`` order must give the reference back.  The survivors,
which the index slices out of one list, must equal, in order, those of
``seed_walk.constrained_candidates``, which sorted every pronoun's
survivors: the package sorts nothing, since extraction comes in
``(anchor, size)`` order and a pronoun that generates sets keeps only the
sets, in sentence order.  ``apply_constraints`` keeps the order it is
given, so on shuffled candidates it must keep the same survivors, and for a
reflexive the same nearest one.  ``check_document`` runs here on the
fixtures, ``TEXTS``, name chains and set texts, and on the shared draw of
generated documents in ``test_walk_differential.py``."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from anafor import parse_document
from anafor.candidates import (
    Candidate, CandidateKind, SearchScope, apply_constraints, constrained_candidates,
    extract_candidates, generate_sets,
)
from anafor.corpus import NameDictionary
from anafor.morphology import _split_apostrophe
from anafor.resolver import walk_document
from anafor.textmodel import PUNCTUATION_TOKENS, Number, PronounKind
import seed_walk
from conftest import FIXTURE_FILES, SCOPES, TEXTS, assert_layer_passed, fixture_text, window
from test_acceptance import FILLERS, NAME_SUFFIXES, OVERT_FORMS, PROP_DICT, PROP_NAMES


def nearness(candidate: Candidate) -> tuple[int, int]:
    return candidate.anchor, len(candidate.members)


def check_constraints(work, mention, survivors, extracted, names, scope, rng) -> None:
    """The walk's survivors equal, in order, those of the reference
    pipeline, which sorted them; on the pipeline's candidates shuffled,
    ``apply_constraints`` keeps the same survivors, and for a reflexive
    the same nearest one."""
    expected = seed_walk.constrained_candidates(work, mention, names, scope)
    assert survivors == expected
    candidates = extracted.copy()
    if mention.number is Number.PLURAL and not any(c.number is Number.PLURAL for c in candidates):
        candidates += generate_sets(work, mention, names, scope)
    # No two candidates of one pronoun tie on (anchor, size).
    assert len(set(map(nearness, candidates))) == len(candidates)
    rng.shuffle(candidates)
    shuffled = apply_constraints(work, mention, candidates)
    if mention.kind is PronounKind.REFLEXIVE:
        assert shuffled == expected
    else:
        assert sorted(shuffled, key=nearness) == expected


def check_document(doc, names, scope) -> None:
    """Walk ``doc``, leaving every third pronoun in place and writing in
    the most recent survivor for the others, and check the index and the
    constraints at each pronoun."""
    visited = []
    rng = random.Random(len(doc.surfaces))

    def choose(work, mention, survivors, history):
        # The text ends at the pronoun's token, its last sentence with it;
        # every token left of it is numbered for good.
        assert len(work.tokens) == mention.position + 1
        assert all(token.index == i for i, token in enumerate(work.tokens[:-1]))
        work.validate()
        assert work.sentences[-1].last == len(work.surfaces) - 1
        occurrences = seed_walk.scan_name_occurrences(work, mention, names, scope)
        extracted = extract_candidates(work, mention, names, scope)
        simple = [c for c in extracted if c.kind is CandidateKind.SIMPLE]
        assert [c.members[0] for c in simple] == occurrences
        assert simple == [
            Candidate((occ,), CandidateKind.SIMPLE, work.sentence_index_of(occ.token_index))
            for occ in occurrences
        ]
        reference = seed_walk.extract_candidates(work, mention, names, scope)
        assert extracted == reference
        index = work.names
        for kept, number in ((index.singular, Number.SINGULAR), (index.plural, Number.PLURAL)):
            assert kept == [c for c in reference if c.number is number]
            assert extracted is not kept
        assert sorted(index.singular + index.plural, key=nearness) == reference
        check_constraints(work, mention, survivors, extracted, names, scope, rng)
        sentence = work.sentence_index_of(mention.position)
        start = work.sentences[max(0, sentence - scope.max_back_sentences)].first
        window = work.tokens[start:mention.position]
        bases = (_split_apostrophe(token.surface)[0] for token in window)
        assert work.names.bases == Counter(base for base in bases if base in names)
        window_sentences = range(max(0, sentence - scope.max_back_sentences), sentence + 1)
        assert set(work.names.first_phrase) <= set(window_sentences)
        # The bases each window sentence counted; items() adds no key to the defaultdict.
        named = work.names._named.items()
        assert all(counted for _, counted in named)
        assert {k for k, _ in named} <= set(window_sentences)
        assert Counter(base for _, counted in named for base in counted) == work.names.bases
        for k in window_sentences:
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


def test_generated_documents_match_the_scan(shared_draw):
    assert_layer_passed(shared_draw, "index")


# The index cuts a surface at its first ' and sends one whose base then
# holds a ’ to the pattern, so either kind may come first.
APOSTROPHES_TEXT = (
    "Ali'nin’ Ayşe’nin'di geldi , Ali’ Ayşe' ’Ali Murat’ler'in ' gördü . "
    '<pro id="1">o</pro> güldü ve <zero id="2" kind="pers" num="pl"/> geldi .'
)


@pytest.mark.parametrize("back", SCOPES)
def test_either_apostrophe_first_matches_the_scan(back):
    check_document(parse_document(APOSTROPHES_TEXT), PROP_DICT, SearchScope(back))


# "Ve" and "İle" lower-case to linkers: between two names such a name both
# links them and opens a run of its own.
CHAIN_NAMES = PROP_NAMES + ("Ve", "İle")
CHAIN_DICT = NameDictionary.from_names(CHAIN_NAMES)
LINKS = ("ve", "ile", "Ve", "İle", "dün", ",")


@st.composite
def chained_texts(draw) -> str:
    """Documents of name chains 2-5 names long, each two names joined by a
    linker, a linking name or a word that breaks the chain, with pronouns
    at any slot, chains included."""
    sentences = []
    for _ in range(draw(st.integers(1, 5))):
        items = []
        for _ in range(draw(st.integers(1, 3))):
            items.append(draw(st.sampled_from(CHAIN_NAMES)))
            for _ in range(draw(st.integers(1, 4))):
                name = draw(st.sampled_from(CHAIN_NAMES)) + draw(st.sampled_from(NAME_SUFFIXES))
                items += [draw(st.sampled_from(LINKS)), name]
            items.append(draw(st.sampled_from(FILLERS)))
        sentences.append(items)
    for next_id in range(1, draw(st.integers(1, 4)) + 1):
        items = draw(st.sampled_from(sentences))
        slot = draw(st.integers(0, len(items)))
        if draw(st.booleans()):
            items.insert(slot, f'<pro id="{next_id}">{draw(st.sampled_from(OVERT_FORMS))}</pro>')
        else:
            kind = draw(st.sampled_from(("pers", "refl")))
            num = draw(st.sampled_from(("sg", "pl")))
            items.insert(slot, f'<zero id="{next_id}" kind="{kind}" num="{num}"/>')
    return " ".join(" ".join(items + ["."]) for items in sentences)


@settings(max_examples=300, deadline=None)
@given(text=chained_texts(), back=st.sampled_from(SCOPES))
def test_name_chains_match_the_scan(text, back):
    check_document(parse_document(text), CHAIN_DICT, SearchScope(back))


SINGULAR_SUFFIXES = tuple(suffix for suffix in NAME_SUFFIXES if "ler" not in suffix)
PLURAL_FORMS = ("onlar", "onları", "kendileri")


@st.composite
def set_texts(draw) -> str:
    """Documents whose names are all singular and never linked, with
    plural pronouns at any slot: until an antecedent is written in as a
    compound, every plural pronoun runs set generation (in one 300-example
    draw, about a third of the pronouns got a set)."""
    sentences = []
    for _ in range(draw(st.integers(1, 5))):
        items = []
        for _ in range(draw(st.integers(1, 5))):
            name = draw(st.sampled_from(PROP_NAMES)) + draw(st.sampled_from(SINGULAR_SUFFIXES))
            items += [name, draw(st.sampled_from(FILLERS + (",",)))]
        sentences.append(items)
    for next_id in range(1, draw(st.integers(1, 4)) + 1):
        items = draw(st.sampled_from(sentences))
        slot = draw(st.integers(0, len(items)))
        if draw(st.booleans()):
            items.insert(slot, f'<pro id="{next_id}">{draw(st.sampled_from(PLURAL_FORMS))}</pro>')
        else:
            kind = draw(st.sampled_from(("pers", "refl")))
            items.insert(slot, f'<zero id="{next_id}" kind="{kind}" num="pl"/>')
    return " ".join(" ".join(items + ["."]) for items in sentences)


@settings(max_examples=300, deadline=None)
@given(text=set_texts(), back=st.sampled_from(SCOPES))
def test_generated_sets_match_the_reference(text, back):
    check_document(parse_document(text), PROP_DICT, SearchScope(back))


def test_sets_are_the_only_plural_survivors():
    # set_texts' premise: a plural pronoun that finds only singular names
    # keeps the sets alone, one per window sentence, in sentence order.
    doc = parse_document(
        "Ali eve geldi , Ayşe'yi gördü . Murat Zeynep'le oyun . "
        '<zero id="1" kind="pers" num="pl"/> güldü .'
    )
    pronoun = doc.pronouns[0]
    survivors = constrained_candidates(doc, pronoun, window(doc, pronoun, PROP_DICT, SearchScope(2)))
    assert [(c.kind, sorted(c.base_names)) for c in survivors] == [
        (CandidateKind.GENERATED_SET, ["Ali", "Ayşe"]),
        (CandidateKind.GENERATED_SET, ["Murat", "Zeynep"]),
    ]
    check_document(doc, PROP_DICT, SearchScope(2))
