"""The weights and lexicon readers, which share ``textmodel.data_lines``,
against their references in seed_walk.py, which each skipped their own
comments and blank lines: each text must give an equal result, or a
ValueError with the same message and line.  The texts are a weights file
in any order or the lexicon in its order, maybe with one line replaced by
a faulty one, padded with blank, space-only and comment lines and with
comments after the values, joined by every separator that
``str.splitlines`` honours.  Both readers read every text.

A file with a leading byte order mark and CRLF line ends reads as the same
file without them, and the apostrophe cut that names and suffixes share
cuts as the reference's ``str.find`` does."""

from __future__ import annotations

from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_walk
from anafor.morphology import Lexicon, _split_apostrophe, default_lexicon
from anafor.scoring import DEFAULT_WEIGHTS, format_weights, load_weights, parse_weights
from test_gazetteer_differential import COMMENTS, SEPARATORS, SPACES

WEIGHT_LINES = format_weights(DEFAULT_WEIGHTS).splitlines()
LEXICON_LINES = [
    "[pronoun o pers sg]", "o", "onu", "[pronoun onlar pers pl]", "onlar",
    "[pronoun kendi refl sg]", "kendi", "[suffix case]", "yi", "[suffix plural]", "ler",
    "[suffix copula]", "ydi",
]
FAULTY = {
    "weights": [
        "quoted_match 2.2", "= 2.2", "recency = heavy", "recency = nan", "recency = -inf",
        "extra = 1.0", "recency = 1", "[suffix case]",
    ],
    "lexicon": [
        "[pronoun o pers]", "[pronoun o xx sg]", "[pronoun o pers du]", "[suffix cases]",
        "[suffix case plural]", "Onu", "ONLAR", "[pronoun]", "recency = 1.0",
    ],
}
TAILS = ["", *COMMENTS, "# a = b", "#[suffix case]", "# = 1.0"]

spaces = st.sampled_from(SPACES)
fillers = st.one_of(spaces, st.builds("{}{}".format, spaces, st.sampled_from(TAILS)))


@st.composite
def data_files(draw) -> str:
    """A weights or lexicon file's text, as the module docstring says."""
    kind = draw(st.sampled_from(sorted(FAULTY)))
    lines = draw(st.permutations(WEIGHT_LINES)) if kind == "weights" else list(LEXICON_LINES)
    if draw(st.booleans()):  # a faulty line in place of one line, or after the last
        at = draw(st.integers(0, len(lines)))
        lines[at:at + 1] = [draw(st.sampled_from(FAULTY[kind]))]
    body = []
    for line in lines:
        body += draw(st.lists(fillers, max_size=2))
        body.append(draw(spaces) + line + draw(spaces) + draw(st.sampled_from(TAILS)))
    ends = ["\n"] * len(body)
    if draw(st.booleans()):
        ends = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(body), max_size=len(body)))
    text = "".join(line + end for line, end in zip(body, ends))
    return text.removesuffix(ends[-1]) if draw(st.booleans()) else text


def _outcome(read, source):
    try:
        return read(source)
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=200, deadline=None)
@given(text=data_files())
@example(text=format_weights(DEFAULT_WEIGHTS))  # the shipped weights ...
@example(text="\n".join(LEXICON_LINES))  # ... and a short lexicon, both valid
@example(text="# w\n\n" + "\u3000\x1f\n".join(WEIGHT_LINES))  # Unicode whitespace after values
@example(text=" \t\n".join(LEXICON_LINES[:5] + ["# x", " "] + LEXICON_LINES[5:]))
@example(text=" ".join(WEIGHT_LINES[:3] + ["recency = heavy # x"] + WEIGHT_LINES[3:]))
@example(text="\x85".join(LEXICON_LINES[:2] + ["[pronoun o xx sg] # y"] + LEXICON_LINES[2:]))
@example(text="")
def test_weights_and_lexicon_read_as_their_references(text):
    assert _outcome(parse_weights, text) == _outcome(seed_walk.parse_weights, text)
    assert _outcome(Lexicon.from_text, text) == _outcome(seed_walk.lexicon_from_text, text)


def _with_and_without_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode("utf-8"))
    return plain, marked


@pytest.mark.parametrize("faulty", [False, True])
def test_weights_file_with_a_byte_order_mark_and_crlf_reads_as_without(tmp_path, faulty):
    lines = ["# weights", *WEIGHT_LINES] + (["extra = heavy"] if faulty else [])
    plain, marked = _with_and_without_mark(tmp_path, "\n".join(lines) + "\n")
    expected = ("ValueError", "weights line 10: bad value 'heavy'") if faulty else DEFAULT_WEIGHTS
    assert _outcome(load_weights, marked) == _outcome(load_weights, plain) == expected


@pytest.mark.parametrize("faulty", [False, True])
def test_lexicon_file_with_a_byte_order_mark_and_crlf_reads_as_without(tmp_path, faulty):
    text = resources.files("anafor").joinpath("data/lexicon.txt").read_text("utf-8")
    count = len(text.splitlines())
    plain, marked = _with_and_without_mark(tmp_path, text + ("[suffix cases]\n" if faulty else ""))
    expected = (
        ("ValueError", f"lexicon line {count + 1}: bad suffix section header") if faulty
        else default_lexicon()
    )
    assert _outcome(Lexicon.from_file, marked) == _outcome(Lexicon.from_file, plain) == expected


@settings(max_examples=200, deadline=None)
@given(surface=st.text(alphabet="'’aAı", max_size=8))
@example(surface="Ali")  # no apostrophe
@example(surface="'yi")  # a leading apostrophe
@example(surface="Ali’nin'i")  # ’ before '
@example(surface="Ali'nin’i")  # ' before ’
@example(surface="Ali''’’yi")  # repeated apostrophes
def test_apostrophe_cut_is_the_references(surface):
    assert _split_apostrophe(surface) == seed_walk._split_apostrophe(surface)
