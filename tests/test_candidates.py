from __future__ import annotations

import dataclasses

import pytest

from anafor import (
    Candidate,
    CandidateKind,
    NameDictionary,
    NameIndex,
    NameOccurrence,
    Number,
    PronounKind,
    PronounMention,
    SearchScope,
    apply_constraints,
    assemble_document,
    constrained_candidates,
    extract_candidates,
    generate_sets,
    feature_vectors,
    parse_document,
)
from anafor.resolver import walk_document
from conftest import window

DICT = NameDictionary.from_names(
    ["Ayşe", "Ahmet", "Fatma", "Ali", "Zeynep", "Murat", "Can"]
)


def _doc_and_pronoun(text, index=0):
    doc = parse_document(text)
    return doc, doc.pronouns[index]


def _shape(candidate):
    return (
        tuple(member.base for member in candidate.members),
        candidate.kind,
        candidate.number,
    )


class TestCandidateInvariants:
    ALI = NameOccurrence("Ali", 0, True, False, False)
    AYSE = NameOccurrence("Ayşe", 2, True, False, False)

    @pytest.mark.parametrize(
        "members,kind,message",
        [
            ((), CandidateKind.COMPOUND, "at least one member"),
            ((ALI, AYSE), CandidateKind.SIMPLE, "exactly one member"),
            ((ALI,), CandidateKind.GENERATED_SET, "at least two members"),
        ],
    )
    def test_constructor_rejects_a_bad_member_list(self, members, kind, message):
        with pytest.raises(ValueError, match=message):
            Candidate(members, kind, 0)

    def test_replace_checks_the_member_list(self):
        simple = Candidate((self.ALI,), CandidateKind.SIMPLE, 0)
        assert type(simple._replace(sentence_index=1)) is Candidate
        assert simple._replace(sentence_index=1) == ((self.ALI,), CandidateKind.SIMPLE, 1)
        with pytest.raises(ValueError, match="at least one member"):
            simple._replace(members=())


class TestSearchScope:
    def test_constructor_and_replace_check_the_scope(self):
        assert SearchScope() == SearchScope(3) and type(SearchScope(3)._replace()) is SearchScope
        with pytest.raises(ValueError, match="scope must be non-negative"):
            SearchScope(-1)
        with pytest.raises(ValueError, match="scope must be non-negative"):
            SearchScope(3)._replace(max_back_sentences=-1)


class TestExtractCandidates:
    def test_compound_and_simple_members(self):
        doc, pronoun = _doc_and_pronoun(
            'Ayşe okula gitti. Ahmet ve Fatma <pro id="1">onu</pro> gördü.'
        )
        shapes = {_shape(c) for c in extract_candidates(doc, pronoun, DICT)}
        assert shapes == {
            (("Ayşe",), CandidateKind.SIMPLE, Number.SINGULAR),
            (("Ahmet",), CandidateKind.SIMPLE, Number.SINGULAR),
            (("Fatma",), CandidateKind.SIMPLE, Number.SINGULAR),
            (("Ahmet", "Fatma"), CandidateKind.COMPOUND, Number.PLURAL),
        }

    def test_ile_links_compound(self):
        doc, pronoun = _doc_and_pronoun('Ali ile Ayşe geldi. <pro id="1">Onlar</pro> gitti.')
        kinds = {_shape(c) for c in extract_candidates(doc, pronoun, DICT)}
        assert (("Ali", "Ayşe"), CandidateKind.COMPOUND, Number.PLURAL) in kinds

    def test_chained_linkers_make_one_compound(self):
        doc, pronoun = _doc_and_pronoun(
            'Ali ve Ayşe ve Murat geldi. <pro id="1">Onlar</pro> gitti.'
        )
        compounds = [
            c for c in extract_candidates(doc, pronoun, DICT)
            if c.kind is CandidateKind.COMPOUND
        ]
        assert len(compounds) == 1
        assert _shape(compounds[0]) == (
            ("Ali", "Ayşe", "Murat"), CandidateKind.COMPOUND, Number.PLURAL,
        )

    @pytest.mark.parametrize("back", [0, 1])
    def test_a_compound_stays_inside_its_sentence(self, back):
        # A hand-built sentence may end in a linker.  The walk's index met
        # Ali ve Ayşe at the zero; Fatma, after the next sentence starts
        # behind "ve", extends no run, whether or not the window still
        # holds that run.
        doc = assemble_document(
            ["Ali", "ve", "Ayşe", "ve", "Fatma", "onları"], [0, 0, 0, 0, 1, 1],
            [PronounMention(1, PronounKind.REFLEXIVE, Number.SINGULAR, 3),
             PronounMention(2, PronounKind.PERSONAL, Number.PLURAL, 5, "onları")],
        )
        compounds = []

        def choose(index, mention, survivors, history):
            compounds.append([
                _shape(c)[0]
                for c in extract_candidates(index.text, mention, DICT, SearchScope(back))
                if c.kind is CandidateKind.COMPOUND
            ])

        walk_document(doc, DICT, SearchScope(back), None, choose)
        assert compounds == [[("Ali", "Ayşe")], [("Ali", "Ayşe")] if back else []]

    def test_a_linker_that_is_also_a_name_still_links(self):
        dictionary = NameDictionary.from_names(["Ali", "Ayşe", "Murat", "İle"])
        doc, pronoun = _doc_and_pronoun(
            'Ali İle Ayşe ve Murat geldi. <pro id="1">Onlar</pro> gitti.'
        )
        compounds = [
            _shape(c)[0] for c in extract_candidates(doc, pronoun, dictionary)
            if c.kind is CandidateKind.COMPOUND
        ]
        assert compounds == [("Ali", "Ayşe", "Murat")]

    def test_nothing_left_of_pronoun(self):
        doc, pronoun = _doc_and_pronoun('<pro id="1">O</pro> geldi.')
        assert extract_candidates(doc, pronoun, DICT) == []

    def test_name_out_of_scope(self):
        doc, pronoun = _doc_and_pronoun(
            "Ali geldi. Kapı açıktı. Sokak boştu. Gece indi. "
            '<pro id="1">O</pro> gitti.'
        )
        assert extract_candidates(doc, pronoun, DICT, SearchScope(3)) == []
        assert len(extract_candidates(doc, pronoun, DICT, SearchScope(4))) == 1

    def test_cataphora_excluded(self):
        doc, pronoun = _doc_and_pronoun('Ayşe <pro id="1">onu</pro> Ali gördü.')
        shapes = {_shape(c)[0] for c in extract_candidates(doc, pronoun, DICT)}
        assert shapes == {("Ayşe",)}

    def test_plural_suffixed_simple_is_plural(self):
        doc, pronoun = _doc_and_pronoun("Ahmet'ler geldi. <pro id=\"1\">Onlar</pro> gitti.")
        (candidate,) = extract_candidates(doc, pronoun, DICT)
        assert candidate.number is Number.PLURAL
        assert candidate.kind is CandidateKind.SIMPLE

    def test_anchor_is_last_member(self):
        doc, pronoun = _doc_and_pronoun('Ali ve Ayşe <pro id="1">onları</pro> gördü.')
        compound = next(
            c for c in extract_candidates(doc, pronoun, DICT)
            if c.kind is CandidateKind.COMPOUND
        )
        ayse = next(t for t in doc.tokens if t.surface == "Ayşe")
        assert compound.anchor == ayse.index

    def test_output_sorted_by_anchor(self):
        doc, pronoun = _doc_and_pronoun(
            'Murat geldi. Ali ve Ayşe <pro id="1">onu</pro> gördü.'
        )
        anchors = [c.anchor for c in extract_candidates(doc, pronoun, DICT)]
        assert anchors == sorted(anchors)


class TestGenerateSets:
    def test_set_from_two_names(self):
        doc, pronoun = _doc_and_pronoun(
            "Ali Zeynep'le oyun oynadı. "
            '<zero id="1" kind="pers" num="pl"/> Parka gittiler.'
        )
        (candidate,) = generate_sets(doc, pronoun, DICT)
        assert _shape(candidate) == (
            ("Ali", "Zeynep"), CandidateKind.GENERATED_SET, Number.PLURAL,
        )

    def test_single_name_sentence_yields_no_set(self):
        doc, pronoun = _doc_and_pronoun(
            'Ali geldi. <zero id="1" kind="pers" num="pl"/> Gittiler.'
        )
        assert generate_sets(doc, pronoun, DICT) == []

    def test_three_names_make_one_set_not_pairs(self):
        doc, pronoun = _doc_and_pronoun(
            "Ali Zeynep'le Murat'ı bekledi. "
            '<zero id="1" kind="pers" num="pl"/> Geldiler.'
        )
        sets = generate_sets(doc, pronoun, DICT)
        assert len(sets) == 1
        assert _shape(sets[0])[0] == ("Ali", "Zeynep", "Murat")

    def test_repeated_base_counts_once(self):
        doc, pronoun = _doc_and_pronoun(
            "Ali Ali'yi aynada gördü. "
            '<zero id="1" kind="pers" num="pl"/> Şaşırdılar.'
        )
        assert generate_sets(doc, pronoun, DICT) == []


class TestApplyConstraints:
    def test_number_and_personal_filters(self):
        doc, pronoun = _doc_and_pronoun(
            'Ayşe okula gitti. Ahmet ve Fatma <pro id="1">onu</pro> gördü.'
        )
        survivors = apply_constraints(doc, pronoun, extract_candidates(doc, pronoun, DICT))
        assert [_shape(c)[0] for c in survivors] == [("Ayşe",)]

    def test_reflexive_keeps_nearest(self):
        doc, pronoun = _doc_and_pronoun(
            'Murat geldi. Ali <pro id="1">kendine</pro> güvenir.'
        )
        survivors = apply_constraints(doc, pronoun, extract_candidates(doc, pronoun, DICT))
        assert [_shape(c)[0] for c in survivors] == [("Ali",)]

    def test_personal_constraint_can_empty_the_list(self):
        doc, pronoun = _doc_and_pronoun('Ayşe <pro id="1">onu</pro> gördü.')
        survivors = apply_constraints(doc, pronoun, extract_candidates(doc, pronoun, DICT))
        assert survivors == []

    def test_output_subset_and_idempotent(self):
        doc, pronoun = _doc_and_pronoun(
            'Ali geldi. Murat ve Can <pro id="1">onları</pro> gördü.'
        )
        candidates = extract_candidates(doc, pronoun, DICT)
        survivors = apply_constraints(doc, pronoun, candidates)
        assert all(c in candidates for c in survivors)
        assert apply_constraints(doc, pronoun, survivors) == survivors

    def test_survivors_agree_in_number(self):
        doc, pronoun = _doc_and_pronoun(
            "Ahmet'ler geldi. Ali <pro id=\"1\">onları</pro> gördü."
        )
        survivors = apply_constraints(doc, pronoun, extract_candidates(doc, pronoun, DICT))
        assert survivors and all(c.number is pronoun.number for c in survivors)


@pytest.mark.parametrize("position", [-1, "end"])
def test_a_pronoun_outside_the_document_is_an_index_error(position):
    # The window starts at the pronoun's sentence number, so a position
    # read off the columns unchecked would give -1 the last sentence.
    doc, pronoun = _doc_and_pronoun('Ali geldi. Murat <pro id="1">onu</pro> gördü.')
    at = window(doc, pronoun, DICT)
    (survivor,) = constrained_candidates(pronoun, at)
    position = len(doc.surfaces) if position == "end" else position
    outside = dataclasses.replace(pronoun, position=position)
    message = f"token index out of range: {position}"
    for reader in extract_candidates, generate_sets, window:
        with pytest.raises(IndexError, match=message):
            reader(doc, outside, DICT)
    # The pronoun's window, asked about another token.
    message = f"the window is at token {pronoun.position}, not at the pronoun's token {position}"
    with pytest.raises(ValueError, match=message):
        constrained_candidates(outside, at)
    with pytest.raises(ValueError, match=message):
        feature_vectors(outside, [survivor], frozenset(), at)


def test_a_name_index_refuses_to_move_left():
    # Advanced to the second zero and then asked about the first, an index
    # would keep Ayşe, a name right of the first zero.
    doc = parse_document(
        'Ali geldi. <zero id="1" kind="pers" num="sg"/> Eve Ayşe geldi. '
        '<zero id="2" kind="pers" num="sg"/> Sustu.'
    )
    first, second = doc.pronouns
    index = NameIndex(doc, DICT, SearchScope(), None).advance(second)
    assert index.end == second.position
    with pytest.raises(ValueError, match=f"the index is at token {second.position}, right of "
                                         f"the pronoun's token {first.position}"):
        index.advance(first)
    # The same token again is allowed, and reads nothing twice.
    assert index.advance(second) is index
    assert [c.base_names for c in index.singular] == [{"Ali"}, {"Ayşe"}]
    assert [c.base_names for c in window(doc, first, DICT).singular] == [{"Ali"}]


def test_a_name_index_reads_one_text_at_one_scope():
    # An index keeps its text and scope, so each window it reaches is the
    # one a new index of that text and scope reads: the sentences that a
    # narrower window left behind would never come back.
    names = NameDictionary.from_names(["Ali", "Ayşe", "Fatma"])
    doc = parse_document(
        'Ali geldi . Ayşe gitti . Fatma <zero id="1" kind="refl" num="sg"/> güldü . '
        '<zero id="2" kind="pers" num="sg"/> sustu .'
    )
    first, second = doc.pronouns
    index = NameIndex(doc, names, SearchScope(3), None)
    assert (index.text, index.max_back_sentences) == (doc, 3)
    assert [c.base_names for c in constrained_candidates(first, index.advance(first))] == [
        {"Fatma"}
    ]
    survivors = constrained_candidates(second, index.advance(second))
    assert [c.base_names for c in survivors] == [{"Ali"}, {"Ayşe"}, {"Fatma"}]
    assert survivors == constrained_candidates(second, window(doc, second, names))


def test_on_the_walk_text_each_reader_answers_for_its_own_arguments():
    # The walk's index holds Ali and Ayşe; a reader given another
    # gazetteer or scope reads its own window.
    doc = parse_document('Ali Ayşe\'yi gördü. <zero id="1" kind="pers" num="pl"/> Güldüler.')
    empty, seen = NameDictionary.from_names([]), []

    def choose(index, mention, survivors, history):
        work = index.text
        assert [c.base_names for c in extract_candidates(work, mention, DICT)] == [
            {"Ali"}, {"Ayşe"}
        ]
        assert generate_sets(work, mention, DICT) == survivors
        assert [c.base_names for c in survivors] == [{"Ali", "Ayşe"}]
        for names, back in (empty, 3), (empty, 0), (DICT, 0):
            assert extract_candidates(work, mention, names, SearchScope(back)) == []
            assert generate_sets(work, mention, names, SearchScope(back)) == []
        seen.append(mention.id)

    walk_document(doc, DICT, SearchScope(), None, choose)
    assert seen == [1]
