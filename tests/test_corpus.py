from __future__ import annotations

import dataclasses
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, reject, strategies as st

import anafor.corpus
from anafor import (
    NameDictionary,
    Number,
    Overtness,
    ParseError,
    PronounKind,
    baseline_resolve_document,
    load_dictionary,
    match_name,
    parse_document,
    resolve_document,
    serialize_document,
    turkish_upper,
)
from anafor.textmodel import PUNCTUATION_TOKENS
from conftest import EXAMPLE_NAMES, FIXTURES, assert_layer_passed, fixture_text
from counting import runs
from test_acceptance import PROP_DICT
from test_golden import _generated

# The characters other modules own: the tokenizer's marks and the parser's refused characters.
OWNED = "".join(sorted(PUNCTUATION_TOKENS)) + anafor.corpus._REJECTED


def gazetteer_names(symbols: str) -> st.SearchStrategy[str]:
    """A capital, then up to four characters, each a letter or, as often, a
    symbol: one of ``symbols`` or of ``OWNED``."""
    tail = st.sampled_from("açıbAB") | st.sampled_from(symbols + OWNED)
    return st.builds(str.__add__, st.sampled_from("AÇİB"), st.text(tail, max_size=4))


CORPORA = sorted((FIXTURES / "corpora").glob("*.txt")) + [
    FIXTURES / "minicorpus" / "minicorpus.txt"
]


class TestParseDocument:
    def test_overt_pronoun_tag(self):
        doc = parse_document('Ayşe <pro id="1">onu</pro> gördü.')
        (mention,) = doc.pronouns
        assert mention.kind is PronounKind.PERSONAL
        assert mention.number is Number.SINGULAR
        assert mention.overtness is Overtness.OVERT
        assert mention.surface == "onu"
        assert doc.tokens[mention.position].surface == "onu"

    def test_zero_pronoun_tag(self):
        doc = parse_document(
            '<zero id="2" kind="pers" num="sg"/> Ona el salladılar.'
        )
        (mention,) = doc.pronouns
        assert mention.kind is PronounKind.PERSONAL
        assert mention.number is Number.SINGULAR
        assert mention.overtness is Overtness.ZERO
        assert mention.surface == ""
        assert doc.tokens[mention.position].surface == "Ona"

    def test_gold_links_captured(self):
        doc = parse_document('Ali <pro id="1" ant="Ahmet;Fatma">onları</pro> gördü.')
        assert doc.pronouns[0].gold_antecedent == frozenset({"Ahmet", "Fatma"})

    def test_no_tag_is_silently_dropped(self):
        text = fixture_text("minicorpus/minicorpus.txt")
        doc = parse_document(text)
        assert len(doc.pronouns) == text.count("<pro") + text.count("<zero")

    def test_canonical_tags_skip_the_attribute_reader(self):
        # Tags spelled as serialize_document writes them are read by one
        # match; a re-spelled tag is read by the attribute reader.
        texts = [fixture_text("minicorpus/minicorpus.txt"), *_generated()]
        with runs(anafor.corpus._attributes) as read:
            docs = list(map(parse_document, texts))
        assert read.n == 0 and sum(len(doc.pronouns) for doc in docs) > 400
        with runs(anafor.corpus._attributes) as read:
            doc = parse_document('Ali <pro  id="1">onu</pro> <zero id="2" kind="pers" num="sg"/> .')
        assert read.n == 1 and len(doc.pronouns) == 2

    @pytest.mark.parametrize(
        "bad,message",
        [
            ('Ali <pro id="1">onu</pro> <pro id="1">ona</pro> gördü.', "duplicate"),
            ('Ali <pro id="1">kitap</pro> aldı.', "not a recognized pronoun"),
            ('Ali <pro id="1">onu gördü</pro>.', "exactly one token"),
            ('Ali <pro id="1">onu', "unterminated"),
            ('Ali <zero id="1" kind="foo" num="sg"/> geldi.', "unknown kind"),
            ('Ali <zero id="1" kind="pers" num="three"/> geldi.', "unknown num"),
            ('Ali <zero id="1" kind="pers"/> geldi.', "missing num"),
            ('Ali <pro id="x">onu</pro> gördü.', "not an integer"),
            ('Ali <pro id="1" foo="bar">onu</pro> gördü.', "unknown attribute"),
            ("Ali < geldi.", "malformed tag"),
            ('Ali geldi. <zero id="1" kind="pers" num="sg"/>', "no following token"),
            ('Ali <pro id="1" ant="">onu</pro> gördü.', "empty name"),
            ('Ali <pro id="1" ant="Ali;">onu</pro> gördü.', "trailing ';' separator"),
            ('Ali <pro id="1" ant="Ali;;Veli">onu</pro> gördü.', "empty name"),
            ('Ali <pro id="1" ant=";Ali">onu</pro> gördü.', "empty name"),
            ('Ali <pro id="1" ant="Ali;;">onu</pro> gördü.', "empty name"),
            ('Ali <pro id="1" ant=" Ayşe">onu</pro> gördü.', "bad name .* whitespace"),
            ('Ali <pro id="1" ant="Ali\'yi">onu</pro> gördü.', "bad name .* reserved"),
            ('Ali <pro id="1" ant="ali">onu</pro> gördü.', "bad name .* uppercase"),
        ],
    )
    def test_parse_errors(self, bad, message):
        with pytest.raises(ParseError, match=message):
            parse_document(bad)

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_document("Ali geldi.\nMurat < gitti.")
        assert info.value.line == 2
        assert info.value.column == 7

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("< geldi.", 1, 1),
            ("Ali geldi.\n< gitti.", 2, 1),
            ("Ali geldi.\nMurat gitti.\nAyşe <", 3, 6),
            ("Ali geldi.\n\nMurat gitti.\n  <", 4, 3),
        ],
    )
    def test_error_line_and_column_on_other_lines(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert (info.value.line, info.value.column) == (line, column)

    # Inputs with two faults: the check that runs first reports, at the
    # offset of its tag.  <pro> checks attributes, id, ant, closing tag,
    # nesting, token count, pronoun form; <zero> checks attributes, id,
    # kind/num, ant; a zero with no following token is found last.
    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ('Ali <pro id="1" foo="x">onu', "unknown attribute 'foo'", 1, 5),
            ('Ali <pro foo="x" id="1" id="1">onu</pro>', "unknown attribute 'foo'", 1, 5),
            ('Ali <pro id="1" id="2" foo="x">onu</pro>', "duplicate attribute 'id'", 1, 5),
            ("Ali <pro id=1 ant=\"\">onu</pro>", "malformed attribute list: 'id=1 ant=\"\"'", 1, 5),
            ('Ali <pro ant="">kitap</pro>', "missing id attribute", 1, 5),
            ('Ali <pro id="x" ant="ali">onu</pro>', "id is not an integer: 'x'", 1, 5),
            ('<pro id="1">onu</pro>\nAli <pro id="1" ant="ali">onu', "duplicate pronoun id 1", 2, 5),
            ('Ali <pro id="1" ant="Ali;">onu', "trailing ';' separator in ant attribute", 1, 5),
            (
                'Ali <pro id="1" ant="ali">onu',
                "bad name in ant attribute: dictionary entry must start uppercase: 'ali'", 1, 5,
            ),
            ('Ali <pro id="1"><zero id="2"/> onu', "unterminated <pro> tag", 1, 5),
            ('Ali <pro id="1">onu <b> gördü</pro>', "nested tag inside <pro>", 1, 5),
            (
                'Ali <pro id="1">kitap kalem</pro>',
                "pronoun tag must contain exactly one token, got 'kitap kalem'", 1, 5,
            ),
            ('Ali <pro id="1">kitap</pro> <', "not a recognized pronoun form: 'kitap'", 1, 5),
            ('Ali <zero kind="pers" foo="x"/> geldi.', "unknown attribute 'foo'", 1, 5),
            ('Ali <zero id="x" kind="foo" num="sg"/> geldi.', "id is not an integer: 'x'", 1, 5),
            ('Ali <zero id="1" kind="foo"/> geldi.', "missing num attribute", 1, 5),
            ('Ali <zero id="1" num="x"/> geldi.', "missing kind attribute", 1, 5),
            ('Ali <zero id="1" kind="foo" num="x"/> geldi.', "unknown kind value: 'foo'", 1, 5),
            ('Ali <zero id="1" kind="pers" num="x" ant=""/> geldi.', "unknown num value: 'x'", 1, 5),
            ('Ali .\n <zero id="1" kind="pers" num="sg" ant=""/>', "empty name in ant attribute", 2, 2),
            # Values are matched as spelled, never by the kind's or number's name.
            ('Ali <zero id="1" kind="PERSONAL" num="sg"/> geldi.', "unknown kind value: 'PERSONAL'",
             1, 5),
            ('Ali <zero id="1" kind="refl" num="Sg"/> geldi.', "unknown num value: 'Sg'", 1, 5),
            # An ant value already read is taken again; the other checks still run.
            (
                'Ali <pro id="1" ant="Ali">onu</pro> <pro id="2" ant="Ali">kitap</pro>',
                "not a recognized pronoun form: 'kitap'", 1, 37,
            ),
            (
                'Ali <zero id="1" kind="pers" num="sg" ant="Ali;"/> x <pro id="2" ant="Ali;">o</pro>',
                "trailing ';' separator in ant attribute", 1, 5,
            ),
            (
                'Ali . <zero id="1" kind="pers" num="sg"/> <zero id="2" kind="pers" num="sg"/> <',
                "malformed tag", 1, 79,
            ),
            (
                'Ali .\n<zero id="1" kind="pers" num="sg"/>\n<zero id="2" kind="pers" num="sg"/>',
                "zero pronoun tag has no following token", 2, 1,
            ),
        ],
    )
    def test_the_first_check_in_order_reports(self, text, message, line, column):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == f"line {line}, column {column}: {message}"
        assert (info.value.line, info.value.column) == (line, column)

    def test_zero_before_a_sentence_closing_quote_anchors_to_the_next_sentence(self):
        doc = parse_document(
            'Ali " eve . Ali . <zero id="1" kind="pers" num="sg"/> '
            '<zero id="2" kind="pers" num="sg"/> " eve . Ali .'
        )
        assert [m.position for m in doc.pronouns] == [7, 7]
        assert doc.tokens[7].surface == "eve" and doc.sentences[2].first == 7
        assert serialize_document(doc).splitlines()[2].startswith('<zero id="1"')

    @pytest.mark.parametrize(
        "text",
        [
            'Ali . <zero id="1" kind="pers" num="sg"/> " eve " .',  # opening quote
            '" Ali <zero id="1" kind="pers" num="sg"/> " geldi .',  # closes mid-sentence
        ],
    )
    def test_zero_before_another_quote_anchors_to_the_quote(self, text):
        doc = parse_document(text)
        assert doc.tokens[doc.pronouns[0].position].surface == '"'

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ('Ali " eve . <zero id="1" kind="pers" num="sg"/> "', 1, 13),
            ('Ali " eve .\n<zero id="1" kind="pers" num="sg"/> "\n<zero id="2" kind="pers" num="sg"/>', 2, 1),
        ],
    )
    def test_zero_before_a_closing_quote_that_ends_the_document(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == f"line {line}, column {column}: zero pronoun tag has no following token"

    @pytest.mark.parametrize(
        "text,position",
        [
            ('Ali geldi . eve gitti . <zero id="1" kind="pers" num="sg"/> . Veli gitti .', 7),
            ('Ali geldi ! <zero id="1" kind="pers" num="sg"/> ? ! Veli gitti .', 5),
            ('Ali " geldi . <zero id="1" kind="pers" num="sg"/> . " Veli gitti .', 6),
        ],
    )
    def test_zero_inside_a_run_of_terminators_anchors_to_the_next_sentence(self, text, position):
        doc = parse_document(text)
        assert [m.position for m in doc.pronouns] == [position]
        assert doc.tokens[position].surface == "Veli"
        assert position in {sent.first for sent in doc.sentences}

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ('Ali geldi . <zero id="1" kind="pers" num="sg"/> .', 1, 13),
            ('Ali " geldi !\n<zero id="1" kind="pers" num="sg"/> ? ! "', 2, 1),
        ],
    )
    def test_zero_inside_a_run_of_terminators_that_ends_the_document(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == f"line {line}, column {column}: zero pronoun tag has no following token"

    def test_empty_document(self):
        doc = parse_document("")
        assert len(doc.tokens) == 0 and len(doc.pronouns) == 0

    def test_leading_byte_order_mark_is_dropped(self, names9):
        text = 'Ali geldi. <zero id="1" kind="pers" num="sg"/> Gitti.'
        marked = resolve_document(parse_document("\ufeff" + text), names9)
        assert marked == resolve_document(parse_document(text), names9)
        assert marked.resolutions[0].antecedent == frozenset({"Ali"})

    @pytest.mark.parametrize(
        "text,line,column,code",
        [
            ("\n\ufeffAli geldi.", 2, 1, "FEFF"),
            ("Ali\u200b geldi.", 1, 4, "200B"),
            ("Ali geldi.\nAyşe\u2060 gitti.", 2, 5, "2060"),
            ('Ali <pro id="1">o\u00adnu</pro> gördü.', 1, 18, "00AD"),
            ("Ali\u061c geldi.", 1, 4, "061C"),
            ("Ali geldi.\nAy\u200cşe gitti.", 2, 3, "200C"),
            ("Ali\u200d geldi.", 1, 4, "200D"),
            ('Ali\u200e geldi. <zero id="1" kind="pers" num="sg"/> güldü.', 1, 4, "200E"),
            ("\u200fAli geldi.", 1, 1, "200F"),
            ('Ali\u202a geldi. <zero id="1" kind="pers" num="sg"/> güldü.', 1, 4, "202A"),
            ("Ali geldi.\n\u202bAyşe gitti\u202c.", 2, 1, "202B"),
            ("Ali\u202c geldi.", 1, 4, "202C"),
            ("Ali geldi.\nAy\u202dşe gitti.", 2, 3, "202D"),
            ("\u202eAli geldi.", 1, 1, "202E"),
            ("Ali\u2061 geldi.", 1, 4, "2061"),
            ('Ali\u2062 geldi. <zero id="1" kind="pers" num="sg"/> güldü.', 1, 4, "2062"),
            ("Ali geldi.\nAyşe\u2063 gitti.", 2, 5, "2063"),
            ("Ali\u2064 geldi.", 1, 4, "2064"),
            ('\u2066Ali geldi. <zero id="1" kind="pers" num="sg"/> güldü.', 1, 1, "2066"),
            ("Ali\u2067 geldi.", 1, 4, "2067"),
            ("Ali geldi.\n\u2068Ayşe gitti.", 2, 1, "2068"),
            ("Ali\u2069 geldi.", 1, 4, "2069"),
        ],
        ids=[
            "bom-inside", "zero-width-space", "word-joiner", "soft-hyphen", "arabic-letter-mark",
            "zero-width-non-joiner", "zero-width-joiner", "left-to-right-mark",
            "right-to-left-mark", "left-to-right-embedding", "right-to-left-embedding",
            "pop-directional-formatting", "left-to-right-override", "right-to-left-override",
            "function-application", "invisible-times", "invisible-separator", "invisible-plus",
            "left-to-right-isolate", "right-to-left-isolate", "first-strong-isolate",
            "pop-directional-isolate",
        ],
    )
    def test_invisible_format_character_is_located(self, text, line, column, code):
        # Each would otherwise glue onto a token unseen (Ali\u200b is no name).
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == (
            f"line {line}, column {column}: invisible format character U+{code}"
        )

    def test_each_invisible_character_is_a_format_character(self):
        assert {unicodedata.category(char) for char in anafor.corpus._INVISIBLE} == {"Cf"}

    @pytest.mark.parametrize(
        "text,line,column,code",
        [
            ('“Ali geldi.” <zero id="1" kind="pers" num="sg"/> Gitti.', 1, 1, "201C"),
            ('"Ali geldi.”\nGitti.', 1, 12, "201D"),
            ("«Ali» geldi.", 1, 1, "00AB"),
            ("Ali geldi.\nAyşe» gitti.", 2, 5, "00BB"),
        ],
        ids=["left-double", "right-double", "left-guillemet", "right-guillemet"],
    )
    def test_typographic_quote_mark_is_located(self, text, line, column, code):
        # Each would otherwise glue onto a token and never pair as '"' does:
        # “Ali left its zero ambiguous, and «Ali» was one token.
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == f"line {line}, column {column}: typographic quote mark U+{code}"


def assert_round_trip(doc) -> None:
    # Generated documents and both walks' paraphrases of them round-trip in
    # the shared draw of test_walk_differential.py.
    assert parse_document(serialize_document(doc)) == doc


def test_a_decomposed_name_is_found_or_refused():
    # Some editors and file systems write Unicode NFD: "ş" as "s" and U+0327.
    names = NameDictionary.from_names(["Ayşe"])
    text = unicodedata.normalize("NFD", 'Ayşe geldi. <zero id="1" kind="pers" num="sg"/> güldü.')
    try:
        doc = parse_document(text)
    except ParseError as exc:
        assert exc.line == 1
        return
    assert [r.antecedent for r in resolve_document(doc, names).resolutions] == [frozenset({"Ayşe"})]


class TestSerializeDocument:
    @pytest.mark.parametrize("path", CORPORA, ids=lambda p: p.stem)
    def test_round_trip_on_fixtures(self, path):
        assert_round_trip(parse_document(path.read_text(encoding="utf-8")))

    def test_round_trip_on_generated_texts(self, shared_draw):
        assert_layer_passed(shared_draw, "round trip")

    def test_round_trip_on_paraphrases(self, shared_draw):
        assert_layer_passed(shared_draw, "paraphrase round trip")

    def test_round_trip_of_a_zero_before_a_closing_quote(self):
        # The closing quote ends the second sentence, so the zero anchors to
        # the next sentence's 'eve' and its name is written in after the quote.
        doc = parse_document(
            'Ali " eve . Ali . <zero id="1" kind="pers" num="sg"/> " eve . Ali .'
        )
        paraphrased = resolve_document(doc, PROP_DICT).paraphrased
        assert parse_document(serialize_document(paraphrased)) == paraphrased

    @pytest.mark.parametrize(
        "text",
        [
            'Ali geldi . eve gitti . <zero id="1" kind="pers" num="sg"/> . Veli gitti .',
            'Ali geldi ! <zero id="1" kind="pers" num="sg"/> ? ! Veli gitti .',
            'Ali " eve . <zero id="1" kind="pers" num="sg"/> . " eve . Ali .',
        ],
    )
    def test_round_trip_of_a_zero_inside_a_run_of_terminators(self, text):
        # The zero anchors to the next sentence's first token, so its name is
        # written in after the whole run and the sentences stay as they were.
        doc = parse_document(text)
        assert parse_document(serialize_document(doc)) == doc
        for resolved in (
            resolve_document(doc, PROP_DICT),
            baseline_resolve_document(doc, PROP_DICT),
        ):
            paraphrased = resolved.paraphrased
            assert resolved.resolutions[0].antecedent is not None
            assert parse_document(serialize_document(paraphrased)) == paraphrased
            assert len(paraphrased.sentences) == len(doc.sentences)

    @given(gazetteer_names("><'’;/=&"))
    @example("A>b")
    @example("A/b=c&d")
    @example("A«b")
    @example("Meh\u00admet")
    def test_a_gazetteer_name_round_trips_as_a_gold_link(self, name):
        # A name the gazetteer accepts can be written as an ant and read back.
        try:
            NameDictionary.from_names([name])
        except ValueError:
            reject()
        doc = parse_document(
            'Ali <pro id="1">onu</pro> gördü . <zero id="2" kind="pers" num="sg"/> güldü .'
        )
        gold = frozenset({name})
        doc = dataclasses.replace(doc, pronouns=tuple(
            dataclasses.replace(mention, gold_antecedent=gold) for mention in doc.pronouns
        ))
        parsed = parse_document(serialize_document(doc))
        assert [mention.gold_antecedent for mention in parsed.pronouns] == [gold, gold]

    @given(gazetteer_names("/=&-"))
    @example("A,b")
    @example("Ali.")
    @example("A«b")
    @example("Meh\u00admet")
    def test_a_gazetteer_name_written_once_resolves_a_later_zero(self, name):
        # A name the gazetteer accepts stays one token of the text, so it can be found.
        try:
            names = NameDictionary.from_names([name])
        except ValueError:
            reject()
        doc = parse_document(f'{name} geldi . <zero id="1" kind="pers" num="sg"/> güldü .')
        for resolved in resolve_document(doc, names), baseline_resolve_document(doc, names):
            assert [r.antecedent for r in resolved.resolutions] == [frozenset({name})]

    def test_zero_tag_count_preserved(self):
        doc = parse_document(fixture_text("corpora/p2_recency.txt"))
        out = serialize_document(doc)
        assert out.count("<zero") == 1
        assert out.count("/>") == 1

    def test_detokenization_glues_punctuation(self):
        doc = parse_document('"Günaydın" dedi Murat. Tekin, Ali geldi.')
        out = serialize_document(doc)
        assert '"Günaydın" dedi Murat.' in out
        assert "Tekin, Ali geldi." in out

    def test_resolved_document_replaces_pronoun_tags(self, names9):
        doc = parse_document(fixture_text("corpora/c1_number_agreement.txt"))
        resolved = resolve_document(doc, names9)
        out = serialize_document(resolved.paraphrased)
        assert "<pro" not in out and "<zero" not in out
        # hand trace: 'onu' becomes Ayşe, the zero marker becomes the pair
        assert "Ahmet ve Fatma Ayşe gördü." in out
        assert "Ahmet ve Fatma Ona el salladılar." in out

    def test_ambiguous_pronouns_stay_tagged(self, names9):
        doc = parse_document(fixture_text("corpora/c3_personal.txt"))
        resolved = resolve_document(doc, names9)
        assert resolved.paraphrased == doc
        assert '<pro id="1">onu</pro>' in serialize_document(resolved.paraphrased)


class TestLoadDictionary:
    def test_dedup(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("Ayşe\nAli\nAli\n", encoding="utf-8")
        dictionary = load_dictionary(path)
        assert len(dictionary) == 2
        assert "Ali" in dictionary and "Ayşe" in dictionary

    def test_empty_file(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("", encoding="utf-8")
        assert len(load_dictionary(path)) == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("# header\n\nAli\n", encoding="utf-8")
        assert set(load_dictionary(path)) == {"Ali"}

    def test_example_names_all_matchable(self, names9):
        doc = parse_document(" ".join(f"{name} geldi." for name in EXAMPLE_NAMES))
        matched = {
            occurrence.base
            for token in doc.tokens
            if (occurrence := match_name(token, names9)) is not None
        }
        assert matched == set(EXAMPLE_NAMES)

    def test_lowercase_entry_rejected(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("ali\n", encoding="utf-8")
        with pytest.raises(ValueError, match="uppercase"):
            load_dictionary(path)

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError, match="dictionary entry must be non-empty"):
            NameDictionary.from_names(["Ali", ""])

    def test_turkish_dotted_capital_accepted(self):
        dictionary = NameDictionary.from_names(["İsmail", "Irmak"])
        assert "İsmail" in dictionary

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes("Ayşe\n".encode("utf-16"))
        with pytest.raises(ValueError, match="UTF-8"):
            load_dictionary(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("Ali\nAyşe\n", encoding="utf-8")
        marked.write_text("Ali\nAyşe\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_dictionary(marked) == load_dictionary(plain)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_dictionary(tmp_path / "absent.txt")

    def test_bad_entry_is_located(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("Ali\n# note\nali\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_dictionary(path)
        assert str(caught.value) == f"{path}, line 3: dictionary entry must start uppercase: 'ali'"

    def test_a_clean_file_is_checked_whole(self, tmp_path):
        # A file that passes is checked whole: no entry on its own, and the
        # head rule once for each distinct first letter.
        names = [f"Ad{i}" for i in range(50)]
        path = tmp_path / "names.txt"
        path.write_text("\n".join(names + names[:10]) + "\n", encoding="utf-8")
        with runs(anafor.corpus._checked_name) as checked, runs(turkish_upper) as heads:
            assert set(load_dictionary(path)) == set(names)
        assert (checked.n, heads.n) == (0, 1)

    def test_each_entry_is_checked_once(self, tmp_path):
        # A file that fails is read line by line, each entry checked once,
        # up to the bad one.
        names = [f"Ad{i}" for i in range(50)]
        path = tmp_path / "names.txt"
        path.write_text("\n".join(names + names[:10] + ["ad"]) + "\n", encoding="utf-8")
        with runs(anafor.corpus._checked_name) as checked, pytest.raises(ValueError) as caught:
            load_dictionary(path)
        assert checked.n == 61
        assert str(caught.value) == f"{path}, line 61: dictionary entry must start uppercase: 'ad'"
