from __future__ import annotations

import dataclasses
import io
import pickle
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from anafor import (
    Document,
    Number,
    PronounKind,
    PronounMention,
    Resolution,
    Token,
    assemble_document,
    parse_document,
)
from anafor.candidates import Candidate, CandidateKind
from anafor.morphology import NameOccurrence
from anafor.textmodel import (
    check_surfaces, decode_utf8, mention_quoted, sentence_numbers, split_tokens,
)
import seed_walk
from test_assemble_differential import _outcome

# Every character that str.split, and the regex class \s, split on.
SPLIT_ON = (" \t\n\r\x0b\x0c\xa0\x1c\x1d\x1e\x1f\x85\u1680\u2028\u2029\u202f\u205f\u3000"
            + "".join(map(chr, range(0x2000, 0x200B))))


class TestSplitTokens:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Ayşe okula gitti.", ["Ayşe", "okula", "gitti", "."]),
            ("Ali'yi gördüm.", ["Ali'yi", "gördüm", "."]),
            ('"Günaydın" dedi', ['"', "Günaydın", '"', "dedi"]),
            ("Tekin, Ali'ye", ["Tekin", ",", "Ali'ye"]),
            ("Ne?!", ["Ne", "?", "!"]),
            ("geldi…", ["geldi", "…"]),
            ("", []),
            ("   \n\t ", []),
        ],
    )
    def test_examples(self, text, expected):
        assert split_tokens(text) == expected

    def test_apostrophe_stays_inside_token(self):
        assert split_tokens("Zeynep'le") == ["Zeynep'le"]

    # split_tokens pads the marks of PUNCTUATION_TOKENS and splits on
    # whitespace; it must split exactly as the pattern that spelled the
    # marks out did.  The alphabet holds every character that str.split
    # and the regex class \s both split on, and U+200B, which neither does.
    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet=list(',.!?…"\'’-]^\\aŞ“”«»\u200b' + SPLIT_ON), max_size=12))
    @example(',.!?…"')
    @example("a\x1cb\u200bc\u3000,")
    def test_split_matches_the_spelled_out_pattern(self, text):
        assert split_tokens(text) == re.findall(r'[,.!?…"]|[^,.!?…"\s]+', text)


def test_split_on_is_every_whitespace_character():
    assert set(SPLIT_ON) == {char for char in map(chr, range(0x110000)) if char.isspace()}
    assert all(re.fullmatch(r"\s", char) for char in SPLIT_ON)


def spelled_out_check(surfaces: list[str]) -> None:
    # check_surfaces as it was spelled out: each surface on its own.
    for surface in surfaces:
        if surface.split() != [surface]:
            raise ValueError(f"token surface must be non-empty and whitespace-free: {surface!r}")


# Lists of letters, empty strings and whitespace runs: the one split of the
# join must raise exactly when a surface fails on its own, naming the first.
@settings(max_examples=1000, deadline=None)
@given(st.lists(st.text(alphabet=list("aş\u200b" + SPLIT_ON), max_size=3), max_size=5))
@example([])
@example([""])
@example(["a", "", "b"])
@example(["a", "b\x1fc", " "])
@example(["a", "\u200b"])
def test_check_surfaces_raises_as_the_per_surface_rule(surfaces):
    assert _outcome(check_surfaces, surfaces) == _outcome(spelled_out_check, surfaces)


def _generated_twin(record) -> object:
    """An instance of a dataclass with ``record``'s name and fields, built by
    the ``__init__`` that ``dataclass`` generates, with the same values."""
    fields = dataclasses.fields(record)
    twin = dataclasses.make_dataclass(
        type(record).__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                                for f in fields], frozen=True)
    return twin(**{f.name: getattr(record, f.name) for f in fields})


ALI = tuple.__new__(NameOccurrence, ("Ali", 0, True, False, False))
RECORDS = [
    PronounMention(3, PronounKind.PERSONAL, Number.SINGULAR, 5, "onu", frozenset({"Ali"})),
    PronounMention(4, PronounKind.REFLEXIVE, Number.PLURAL, 0),
    Resolution(3, frozenset({"Ali"}), 1.5, (Candidate((ALI,), CandidateKind.SIMPLE, 0),),
               (None,), (1.5,)),
    Resolution(4, None, None),
]


class TestRecords:
    # PronounMention and Resolution fill their fields by one update of the
    # instance dict in a hand-written __init__; they must act as the
    # generated one did.
    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_same_fields_equality_hash_repr_and_pickling(self, record):
        twin = _generated_twin(record)
        assert vars(record) == vars(twin)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert dataclasses.astuple(record) == dataclasses.astuple(twin)
        copied = pickle.loads(pickle.dumps(record))
        assert copied == record and hash(copied) == hash(record) and copied is not record
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **{dataclasses.fields(record)[0].name: 99})
        assert changed != record and type(changed) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_fields_are_frozen(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)

    def test_the_gold_check_holds_also_through_replace(self):
        message = "gold antecedent, when present, must be non-empty"
        with pytest.raises(ValueError, match=message):
            PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 0, "", frozenset())
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(RECORDS[0], gold_antecedent=frozenset())
        assert dataclasses.replace(RECORDS[0], gold_antecedent=None).gold_antecedent is None

    @settings(max_examples=100, deadline=None)
    @given(st.builds(PronounMention), st.builds(Resolution))
    def test_hypothesis_infers_the_arguments(self, mention, resolution):
        assert isinstance(mention.kind, PronounKind) and isinstance(mention.number, Number)
        assert type(mention.id) is int and type(mention.position) is int
        assert resolution.antecedent is None or isinstance(resolution.antecedent, frozenset)
        assert resolution.score is None or isinstance(resolution.score, float)


class TestDecodeUtf8:
    # The files behind --dict, --weights and --lexicon were read through
    # open() in text mode; decode_utf8 must give the same text.
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=["a", "ş", "\r", "\n", "\ufeff"], max_size=8), st.booleans())
    @example("\r\r\n", False)
    @example("\ufeffa", True)
    def test_same_text_as_open_in_text_mode(self, text, bom):
        data = text.encode("utf-8")
        encoding = "utf-8-sig" if bom else "utf-8"
        assert decode_utf8(data, "x", bom) == io.TextIOWrapper(io.BytesIO(data), encoding).read()

    def test_undecodable_bytes_name_the_source(self):
        with pytest.raises(ValueError) as caught:
            decode_utf8(b"Ali\n\xff", "names.txt", bom=True)
        assert str(caught.value) == (
            "names.txt: not valid UTF-8 ('utf-8' codec can't decode byte 0xff in position 4: "
            "invalid start byte)"
        )


class TestSentenceNumbers:
    @staticmethod
    def numbers(text: str) -> list[int]:
        """``sentence_numbers`` of the text's tokens, checked against the
        seed's sentence spans read as a column."""
        surfaces = split_tokens(text)
        assert sentence_numbers(surfaces) == seed_walk.sentence_column(surfaces)
        return sentence_numbers(surfaces)

    def test_plain_sentences(self):
        assert self.numbers("Ali geldi. Murat gitti.") == [0, 0, 0, 1, 1, 1]

    def test_trailing_text_without_terminator(self):
        assert self.numbers("Ali geldi. Murat") == [0, 0, 0, 1]

    def test_terminator_run_stays_in_one_sentence(self):
        assert self.numbers("Geldin mi?! Evet.") == [0, 0, 0, 0, 1, 1]

    def test_closing_quote_after_terminator_belongs_to_sentence(self):
        # close quote absorbed after '!', so 'dedi .' starts a new sentence
        assert self.numbers('Ali "Gel!" dedi.') == [0, 0, 0, 0, 0, 1, 1]

    def test_opening_quote_after_terminator_starts_new_sentence(self):
        assert self.numbers('dedi Zerrin. "Ben de') == [0, 0, 0, 1, 1, 1]


class TestQuotedFlags:
    def test_paired_quotes_mark_inner_tokens(self):
        doc = parse_document('"Günaydın" dedi Murat.')
        flags = {t.surface: t.quoted for t in doc.tokens}
        assert flags["Günaydın"] is True
        assert flags["dedi"] is False
        assert flags["Murat"] is False
        assert all(not t.quoted for t in doc.tokens if t.surface == '"')

    def test_unpaired_trailing_quote_clipped_to_its_sentence(self):
        doc = parse_document('Ali "geldi dedi. Murat gitti.')
        by_surface = {t.surface: t for t in doc.tokens}
        assert by_surface["geldi"].quoted is True
        assert by_surface["dedi"].quoted is True
        assert by_surface["Murat"].quoted is False
        assert by_surface["gitti"].quoted is False


class TestMentionQuoted:
    # A zero before a quote mark is quoted when a quote is open just left of
    # the mark; any other mention takes its token's flag.
    @pytest.mark.parametrize("text,quoted", [
        ('" Eve <zero id="1" kind="pers" num="sg"/> " dedi .', True),
        ('Ali <zero id="1" kind="pers" num="sg"/> " eve " gitti .', False),
        ('Ali " <zero id="1" kind="pers" num="sg"/> " gitti .', True),
        ('" eve " <zero id="1" kind="pers" num="sg"/> " gitti " .', False),
        ('" eve " " <zero id="1" kind="pers" num="sg"/> " gitti .', True),
        ('" eve <zero id="1" kind="pers" num="sg"/> gitti " .', True),
        ('" Ali <pro id="1">o</pro> " gitti .', True),
        ('<zero id="1" kind="pers" num="sg"/> " gitti .', False),
    ])
    def test_zero_before_a_quote_mark(self, text, quoted):
        doc = parse_document(text)
        (mention,) = doc.pronouns
        assert mention_quoted(doc, mention) is quoted


class TestTokenInvariants:
    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            Token(surface="", index=0, sentence_index=0)

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Token(surface="a b", index=0, sentence_index=0)

    # Whitespace by both of CPython's definitions, and look-alikes that are
    # whitespace by neither (zero-width space, byte order mark).
    @settings(max_examples=1000, deadline=None)
    @given(st.text(
        alphabet=["a", " ", "\t", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\u200b",
                  "\ufeff"],
        max_size=5,
    ))
    @example("")
    @example(" ")
    @example("a b")
    def test_split_check_is_the_isspace_check(self, surface):
        bad = not surface or any(ch.isspace() for ch in surface)
        assert (surface.split() != [surface]) == bad
        try:
            Token(surface=surface, index=0, sentence_index=0)
        except ValueError:
            assert bad
        else:
            assert not bad

    def test_replace_checks_the_surface(self):
        token = Token("a", 0, 0)
        assert type(token._replace(index=3)) is Token
        assert token._replace(index=3) == ("a", 3, 0, False)
        with pytest.raises(ValueError, match="whitespace-free"):
            token._replace(surface="a b")

    def test_followed_by_comma(self):
        # The punctuation preference reads the comma off the next token.
        doc = parse_document("Yolda Tekin, Ali'ye seslendi.")
        by_surface = {t.surface: t for t in doc.tokens}
        assert doc.tokens[by_surface["Tekin"].index + 1].surface == ","
        assert doc.tokens[by_surface["Ali'ye"].index + 1].surface != ","


class TestSentenceDistance:
    def test_same_sentence_is_zero(self):
        doc = parse_document("Ali Murat ile geldi.")
        assert doc.sentence_index_of(0) == doc.sentence_index_of(1)

    def test_distance_by_definition(self):
        doc = parse_document("Bir. İki. Üç. Dört.")
        assert (doc.sentence_index_of(0), doc.sentence_index_of(6)) == (0, 3)

    def test_recency_example_distances(self):
        doc = parse_document(
            'Ali oyun oynuyordu. Murat da geldi. '
            '<zero id="1" kind="pers" num="sg"/> Oyunu sevdi.'
        )
        zero = doc.pronouns[0]
        ali = next(t for t in doc.tokens if t.surface == "Ali")
        murat = next(t for t in doc.tokens if t.surface == "Murat")
        zero_sentence = doc.sentence_index_of(zero.position)
        assert zero_sentence - doc.sentence_index_of(ali.index) == 2
        assert zero_sentence - doc.sentence_index_of(murat.index) == 1

    def test_invalid_index_raises(self):
        doc = parse_document("Ali geldi.")
        with pytest.raises(IndexError):
            doc.sentence_index_of(99)


class TestDocumentInvariants:
    def test_tokens_round_trip_through_sentences(self):
        doc = parse_document(fixture := "Ali geldi. Murat gitti. Ayşe durdu.")
        assert fixture  # keep the walrus readable
        for token in doc.tokens:
            sentence = doc.sentences[token.sentence_index]
            assert sentence.first <= token.index <= sentence.last

    def test_pronouns_sorted_by_position(self):
        doc = parse_document(
            'Ali <pro id="7">onu</pro> gördü. '
            '<zero id="3" kind="pers" num="sg"/> Gitti.'
        )
        positions = [m.position for m in doc.pronouns]
        assert positions == sorted(positions)

    def test_zero_before_overt_keeps_document_order(self):
        doc = parse_document(
            'Ali geldi. <zero id="1" kind="pers" num="pl"/> '
            '<pro id="2">Ona</pro> el salladılar.'
        )
        assert [m.id for m in doc.pronouns] == [1, 2]
        assert doc.pronouns[0].position == doc.pronouns[1].position

    def test_assemble_rejects_duplicate_ids(self):
        mentions = [
            PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 0, "onu"),
            PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 1),
        ]
        with pytest.raises(ValueError):
            assemble_document(["onu", "gördü", "."], [0, 0, 0], mentions)

    def test_assemble_rejects_out_of_range_position(self):
        mention = PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 9)
        with pytest.raises(ValueError):
            assemble_document(["Ali", "geldi", "."], [0, 0, 0], [mention])

    @pytest.mark.parametrize(
        "surfaces,sentence_of,message",
        [
            pytest.param(["Ali", "geldi", ".", "Gitti", "."], [0, 0, 0, 2, 2],
                         "token 3 is in sentence 2, after 0", id="gap"),
            pytest.param(['"', "Ali", "."], [1, 1, 1],
                         "token 0 is in sentence 1, not sentence 0", id="start"),
            pytest.param(["Ali", '"'], [0], "token columns differ in length", id="short"),
            pytest.param(["Ali"], [0, 0], "token columns differ in length", id="long"),
            pytest.param(["Ali", "a b"], [0, 2],  # the surfaces are checked first
                         "token surface must be non-empty and whitespace-free: 'a b'",
                         id="surface-then-gap"),
        ],
    )
    def test_assemble_refuses_a_bad_numbering(self, surfaces, sentence_of, message):
        assert _outcome(assemble_document, surfaces, sentence_of) == ("ValueError", message)

    def test_empty_gold_antecedent_rejected(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            PronounMention(1, PronounKind.PERSONAL, Number.SINGULAR, 0, "onu", frozenset())

    # Each document breaks one invariant that every parsed document keeps.
    @pytest.mark.parametrize(
        "surfaces,sentence_of,pronouns,message",
        [
            pytest.param(
                ["Ali", "geldi"], [0], [], "token columns differ in length",
                id="column-length",
            ),
            pytest.param(
                ["Ali", "geldi"], [1, 1], [], "token 0 is in sentence 1, not sentence 0",
                id="column-1-1",
            ),
            pytest.param(
                ["Ali", "geldi"], [0, 2], [], "token 1 is in sentence 2, after 0",
                id="column-0-2",
            ),
            pytest.param(
                ["Ali", ".", "geldi"], [0, 1, 0], [],
                "token 2 is in sentence 0, after 1", id="column-0-1-0",
            ),
            pytest.param(
                ["Ali", "onu", "gördü"], [0, 0, 0],
                [(1, 2, ""), (2, 1, "")],
                "pronouns are not ordered by position", id="mention-order",
            ),
            pytest.param(
                ["Ali", "onu"], [0, 0], [(1, 1, "ona")],
                "pronoun 1 surface does not match its token", id="overt-surface",
            ),
        ],
    )
    def test_validate_rejects_a_broken_invariant(self, surfaces, sentence_of, pronouns, message):
        doc = Document(
            tuple(surfaces),
            tuple(sentence_of),
            (False,) * len(surfaces),
            tuple(
                PronounMention(i, PronounKind.PERSONAL, Number.SINGULAR, position, surface)
                for i, position, surface in pronouns
            ),
        )
        with pytest.raises(ValueError, match=message):
            doc.validate()

    def test_empty_document(self):
        doc = parse_document("")
        assert doc.tokens == ()
        assert doc.sentences == ()
        assert doc.pronouns == ()
