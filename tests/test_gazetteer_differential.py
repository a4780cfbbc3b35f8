"""The gazetteer reader against its reference in seed_walk.py, which checks
each line on its own: each file must give an equal NameDictionary, or a
ValueError with the same message, path and line.

The files are drawn line by line out of names, comments, blank and
space-only lines, joined by every separator that ``str.splitlines``
honours, with or without a byte order mark and a last separator.  The
names include each way a name is refused: a lowercase, digit, ``ı`` or
stray U+FEFF head, a reserved or unprintable character, whitespace inside that only
``str.split`` cuts on, and a name not in Unicode NFC."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_walk
from anafor import NameDictionary, load_dictionary

SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
GOOD = ["Ali", "Ayşe", "Ömer", "Çağrı", "İsmail", "Irmak", "Şule", "Ümit", "İ", "Ali"]
BAD = [
    "ali", "ayşe", "1Ali", "ıtır", "itır", "\ufeffAli", "_Ali", "Ali'", "Ali’nin", 'A"b', "A<b",
    "A>b", "A;b", "Ali Veli", "Ali\tVeli", "Ali\x1fVeli", "Ali\u00a0Veli", "Ali\u3000Veli", "ß",
    "A,b", "Ali.", "A!b", "A?b", "Ali…", "A«b", "Ali”", "Meh\u00admet", "Ali\u200b",
    "Ay\u200dşe", "Ays\u0327e", "Ali\u202a", "Ay\u202eşe", "\u2066Ali", "Ali\u2069",
    "Mu\u2062rat", "Ali\u2064", "Ali\u180e", "A\ufff9b", "Ali\U000e0001", "Ali\ue000", "Ali\x07",
    "Ali\u0378",
]
SPACES = ["", " ", "\t", "\x1f", "\u00a0", "\u3000"]
COMMENTS = ["#", "# header", "#it's <a>; \"b\" ’c", "# Ali Veli", "##"]

spaces = st.sampled_from(SPACES)
tails = st.sampled_from(["", *COMMENTS])
clean_lines = st.one_of(
    st.builds("{}{}".format, st.sampled_from(GOOD), st.sampled_from(["", "# note"])),
    st.builds("{}{}{}{}".format, spaces, st.sampled_from(GOOD), spaces, tails),
    st.builds("{}{}".format, spaces, st.sampled_from(COMMENTS)),
    spaces,
)
any_lines = clean_lines | st.builds("{}{}{}{}".format, spaces, st.sampled_from(BAD), spaces, tails)


@st.composite
def gazetteer_files(draw) -> str:
    """A file's text: lines drawn from the clean lines alone or from all,
    each ended by a newline or each by a drawn separator, the last maybe
    not, after a byte order mark maybe."""
    body = draw(st.lists(draw(st.sampled_from([clean_lines, any_lines])), max_size=12))
    ends = ["\n"] * len(body)
    if draw(st.booleans()):
        ends = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(body), max_size=len(body)))
    text = "".join(line + end for line, end in zip(body, ends))
    if body and draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _loaded(load, path) -> NameDictionary | tuple[str, str]:
    try:
        return load(path)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.fixture(scope="module")
def gazetteer_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gazetteer") / "names.txt"


@settings(max_examples=400, deadline=None)
@given(text=gazetteer_files())
@example(text="Ali\nAyşe\nAli\n")  # valid names, with a duplicate
@example(text="# header\nAli # note\n#\nAyşe#x\n  # indented\n")  # comments
@example(text="Ali\nAyşe#x\n")  # a comment glued to a name, in a file of bare names
@example(text="\n\nAli\n \t\n\u00a0\nAyşe\n\n")  # blank and space-only lines
@example(text="\ufeffAli\r\nAyşe\r\n")  # a byte order mark and CRLF
@example(text="Ali" + "Ayşe".join(SEPARATORS) + "# x\u2028Ömer\x85")  # every line separator
@example(text="Ali\x1fVeli\n")  # whitespace that only str.split cuts on
@example(text="Ayşe\nAli\u00a0Veli\n")
@example(text="Ali\nAli\u3000Veli\n")
@example(text="Ali\nO'nun\n")  # a reserved character in a name ...
@example(text="Ali\nO’nun\n")
@example(text='Ali\nA"b\n')
@example(text="Ali\nA<b\n")
@example(text="Ali\nA;b\n")
@example(text="Ali # it's <b>; \"c\" ’d\n")  # ... and in a comment
@example(text="Ali\nali\n")  # a lowercase, digit, dotless and dotted head
@example(text="Ali\n1Ali\n")
@example(text="Ali\nıtır\n")
@example(text="İsmail\nIrmak\nİ\n")
@example(text="")  # the empty file
def test_gazetteer_file_loads_as_the_reference(gazetteer_path, text):
    gazetteer_path.write_bytes(text.encode("utf-8"))
    expected = _loaded(seed_walk.load_dictionary, gazetteer_path)
    assert _loaded(load_dictionary, gazetteer_path) == expected
