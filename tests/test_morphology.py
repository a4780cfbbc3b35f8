from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from anafor import (
    Lexicon,
    NameDictionary,
    Number,
    PronounKind,
    Token,
    classify_pronoun,
    default_lexicon,
    match_name,
    parse_document,
    resolve_document,
    turkish_lower,
    turkish_upper,
)
from anafor.morphology import _split_apostrophe
from conftest import fixture_text

DICT = NameDictionary.from_names(["Ayşe", "Ali", "Murat", "Zeynep", "Ahmet", "O"])


def _token(surface: str, index: int = 0) -> Token:
    return Token(surface=surface, index=index, sentence_index=0)


class TestTurkishCasing:
    @pytest.mark.parametrize(
        "word,lowered",
        [("Işık", "ışık"), ("İsmail", "ismail"), ("ONLARI", "onları"), ("KENDİ", "kendi")],
    )
    def test_lower(self, word, lowered):
        assert turkish_lower(word) == lowered

    @pytest.mark.parametrize("word,raised", [("ismail", "İSMAİL"), ("ışık", "IŞIK")])
    def test_upper(self, word, raised):
        assert turkish_upper(word) == raised


class TestClassifyPronoun:
    @pytest.mark.parametrize(
        "surface,lemma,kind,number",
        [
            ("onu", "o", PronounKind.PERSONAL, Number.SINGULAR),
            ("Onu", "o", PronounKind.PERSONAL, Number.SINGULAR),
            ("ONLARI", "onlar", PronounKind.PERSONAL, Number.PLURAL),
            ("kendine", "kendi", PronounKind.REFLEXIVE, Number.SINGULAR),
            ("kendisini", "kendisi", PronounKind.REFLEXIVE, Number.SINGULAR),
            ("kendilerine", "kendileri", PronounKind.REFLEXIVE, Number.PLURAL),
        ],
    )
    def test_known_forms(self, surface, lemma, kind, number):
        form = classify_pronoun(surface)
        assert form is not None
        assert (form.lemma, form.kind, form.number) == (lemma, kind, number)

    @pytest.mark.parametrize("surface", ["kitap", "Ali", "onlarınki", "", "ondakiler"])
    def test_non_pronouns(self, surface):
        assert classify_pronoun(surface) is None

    def test_lexicon_partitions_into_five_lemmas(self):
        lexicon = default_lexicon()
        lemma_map: dict[str, tuple[PronounKind, Number]] = {}
        for form in lexicon.pronoun_forms.values():
            lemma_map.setdefault(form.lemma, (form.kind, form.number))
            assert lemma_map[form.lemma] == (form.kind, form.number)
        assert lemma_map == {
            "o": (PronounKind.PERSONAL, Number.SINGULAR),
            "onlar": (PronounKind.PERSONAL, Number.PLURAL),
            "kendi": (PronounKind.REFLEXIVE, Number.SINGULAR),
            "kendisi": (PronounKind.REFLEXIVE, Number.SINGULAR),
            "kendileri": (PronounKind.REFLEXIVE, Number.PLURAL),
        }

    def test_every_lexicon_form_classifies_to_itself(self):
        lexicon = default_lexicon()
        for surface, form in lexicon.pronoun_forms.items():
            assert classify_pronoun(surface) == form
            assert classify_pronoun(turkish_upper(surface)) == form


class TestMatchName:
    def test_oblique_accusative(self):
        occurrence = match_name(_token("Ayşe'yi"), DICT)
        assert occurrence is not None
        assert occurrence.base == "Ayşe"
        assert occurrence.nominative is False

    def test_bare_nominative(self):
        occurrence = match_name(_token("Murat"), DICT)
        assert occurrence is not None
        assert (occurrence.base, occurrence.nominative) == ("Murat", True)
        assert not occurrence.plural_suffix and not occurrence.copular_suffix

    def test_copular_suffix(self):
        occurrence = match_name(_token("Ali'ydi"), DICT)
        assert occurrence is not None
        assert occurrence.copular_suffix is True
        assert not occurrence.nominative

    def test_plural_suffix_is_nominative(self):
        occurrence = match_name(_token("Ahmet'ler"), DICT)
        assert occurrence is not None
        assert occurrence.plural_suffix is True
        assert occurrence.nominative

    def test_plural_plus_case_is_oblique(self):
        occurrence = match_name(_token("Ahmet'lerin"), DICT)
        assert occurrence is not None
        assert occurrence.plural_suffix is True
        assert occurrence.nominative is False

    def test_case_after_copula_strip(self):
        occurrence = match_name(_token("Ali'deydi"), DICT)
        assert occurrence is not None
        assert occurrence.copular_suffix is True
        assert occurrence.nominative is False

    def test_unrecognized_suffix_is_oblique(self):
        occurrence = match_name(_token("Ali'xyz"), DICT)
        assert occurrence is not None
        assert occurrence.nominative is False

    def test_unknown_capitalized_word_is_no_match(self):
        assert match_name(_token("Kapı"), DICT) is None

    def test_pronoun_surface_shadows_dictionary_entry(self):
        # 'O' is in the dictionary here, but pronoun forms take precedence.
        assert match_name(_token("O"), DICT) is None
        assert match_name(_token("Onu"), DICT) is None

    def test_unicode_apostrophe_accepted(self):
        occurrence = match_name(_token("Ali’ye"), DICT)
        assert occurrence is not None
        assert occurrence.nominative is False

    @given(st.text(alphabet="abcçdefgğhıijklmnoöprsştuüvyz", min_size=1, max_size=12))
    def test_lowercase_tokens_never_match(self, word):
        assert match_name(_token(word), DICT) is None


class TestLexiconFile:
    def test_bad_section_header_rejected(self):
        from anafor import Lexicon

        with pytest.raises(ValueError, match="section header"):
            Lexicon.from_text("[pronoun o pers]\no\n")

    def test_entry_outside_section_rejected(self):
        from anafor import Lexicon

        with pytest.raises(ValueError, match="outside any section"):
            Lexicon.from_text("onu\n")

    def test_missing_suffix_table_rejected(self):
        from anafor import Lexicon

        with pytest.raises(ValueError, match="suffix"):
            Lexicon.from_text("[pronoun o pers sg]\no\n")

    def test_duplicate_form_rejected(self):
        from anafor import Lexicon

        text = "[pronoun o pers sg]\no\no\n"
        with pytest.raises(ValueError, match="duplicate"):
            Lexicon.from_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[pronoun o third sg]\no\n", "lexicon line 1: 'third' is not a valid PronounKind"),
            ("[pronoun o pers sg]\no\n[suffix dative]\n", "lexicon line 3: bad suffix section"),
            ("[suffix case]\nyi\n", "lexicon defines no pronoun forms"),
        ],
    )
    def test_bad_section_rejected(self, text, message):
        from anafor import Lexicon

        with pytest.raises(ValueError, match=message):
            Lexicon.from_text(text)


class TestIsNominative:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("Ali", True),
            ("Ali'ye", False),
            ("Zeynep'le", False),
            ("Ali'ydi", False),
            ("Ali'nin", False),
            ("Murat'tan", False),
            ("Ahmet'ler", True),
        ],
    )
    def test_examples(self, surface, expected):
        occurrence = match_name(_token(surface), DICT)
        assert occurrence is not None
        assert occurrence.nominative is expected


class TestAnalysisMemo:
    TABLES = "[pronoun o pers sg]\no\n[suffix case]\nyi\n[suffix copula]\nydi\n"

    def test_lexicons_with_other_tables_analyse_a_surface_apart(self):
        ler = Lexicon.from_text(self.TABLES + "[suffix plural]\nler\n")
        lar = Lexicon.from_text(self.TABLES + "[suffix plural]\nlar\n")
        token = _token("Ali'ler")
        flags = [
            match_name(token, DICT, lexicon)[2:] for lexicon in (ler, lar, ler, lar)
        ]
        assert flags == [(True, True, False), (False, False, False)] * 2
        assert ler.analyses == {"Ali'ler": (True, True, False)}
        assert lar.analyses == {"Ali'ler": (False, False, False)}

    def test_a_replaced_lexicon_starts_a_memo_of_its_own(self):
        ler = Lexicon.from_text(self.TABLES + "[suffix plural]\nler\n")
        assert match_name(_token("Ali'ler"), DICT, ler).plural_suffix
        lar = dataclasses.replace(ler, plural_prefixes=("lar",))
        assert not match_name(_token("Ali'ler"), DICT, lar).plural_suffix
        assert ler == dataclasses.replace(lar, plural_prefixes=("ler",))

    def test_pronoun_forms_are_refused_from_the_memo(self):
        lexicon = Lexicon.from_text(self.TABLES + "[suffix plural]\nler\n")
        assert [match_name(_token("O"), DICT, lexicon) for _ in range(2)] == [None, None]
        assert lexicon.analyses == {"O": None}

    def test_default_memo_holds_only_gazetteer_hits(self, names9):
        memo = default_lexicon().analyses
        memo.clear()
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        paraphrased = resolve_document(doc, names9).paraphrased
        hits = {
            surface for surface in doc.surfaces + tuple(paraphrased.surfaces)
            if _split_apostrophe(surface)[0] in names9
        }
        assert 0 < len(memo) <= len(hits)
        assert set(memo) <= hits
