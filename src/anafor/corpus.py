"""Annotated corpus files and the proper-name gazetteer.

Corpus files are plain UTF-8 narrative text with inline pronoun tags:

    overt pronoun:  <pro id="3" ant="Ayşe">onu</pro>
    zero pronoun:   <zero id="4" kind="pers" num="sg" ant="Murat"/>

``ant`` is optional and holds the gold antecedent as semicolon-joined base
names (``ant="Ahmet;Fatma"`` for a plural link).  Overt tags carry no kind
or number attributes: both are derived from the surface form, and a surface
that is not a recognized pronoun form is a parse error.  A zero tag anchors
to the next token in the stream, or to the first token of the next sentence
when it stands inside the run of terminators and closing quote that ends a
sentence (in ``Ali "Gel. <zero …/> " Gitti.`` and ``Gel. <zero …/> . Gitti.``
the zero anchors to ``Gitti``).  Proper names come from the gazetteer, and
hold no mark that the tokenizer splits off nor a character the parser refuses.
Text is read in Unicode NFC, so a name is refused unless it is in NFC too.

The literal ``<`` character is reserved for tags and may not appear in the
running text.  A tag spelled as :func:`serialize_document` writes it is
read by one regex match; any other spelling goes through the attribute
reader, and the same checks follow both, in the same order.  Sentences are
numbered once, and that column and the surfaces build the Document.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress
from operator import add, itemgetter, ne
from typing import Iterable, Iterator
import re
import unicodedata

from .morphology import (
    APOSTROPHES, Lexicon, classify_pronoun, default_lexicon, turkish_lower, turkish_upper,
)
from .textmodel import (
    Document,
    Number,
    PronounKind,
    PronounMention,
    PUNCTUATION_TOKENS,
    QUOTE,
    SENTENCE_TERMINATORS,
    sentence_numbers,
    split_tokens,
    assemble_document,
    data_lines,
    read_data_file,
)

# A tag as serialize_document spells it; no value holds '<' or '>', so the
# attribute reader would read the same attributes, surface and end.
_CANONICAL_RE = re.compile(
    r'<(?:pro|(?P<zero>zero)) id="(?P<id>[^"<>]*)"(?(zero) kind="(?P<kind>pers|refl)"'
    r' num="(?P<num>sg|pl)")(?: ant="(?P<ant>[^"<>]*)")?(?(zero)/>|>(?P<surface>[^<]*)</pro>)'
)
_PRO_OPEN_RE = re.compile(r"<pro\b([^<>]*)>")
_ZERO_RE = re.compile(r"<zero\b([^<>]*?)/>")
_ATTR_RE = re.compile(r'\s*([A-Za-z_]\w*)\s*=\s*"([^"]*)"')
_PRO_CLOSE = "</pro>"
# Unprintable characters (str.isprintable) glue onto a token unseen and are
# refused; typographic quote marks glue on too, and never pair as '"' does.
_QUOTES = "\u00ab\u00bb\u201c\u201d"
_RESERVED = "".join((*APOSTROPHES, "<>;", *sorted(PUNCTUATION_TOKENS), _QUOTES))  # never in a name
_PRO_KEYS = frozenset({"id", "ant"})
_ZERO_KEYS = frozenset({"id", "kind", "num", "ant"})
_KINDS = {kind.value: kind for kind in PronounKind}
_NUMBERS = {number.value: number for number in Number}


class ParseError(ValueError):
    """Malformed corpus input, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _checked_name(name: str) -> str:
    """``name`` if it may be a gazetteer entry, else a ValueError saying why."""
    if not name:
        raise ValueError("dictionary entry must be non-empty")
    if name.split() != [name]:
        raise ValueError(f"dictionary entry contains whitespace: {name!r}")
    if not name.isprintable() or any(map(name.__contains__, _RESERVED)):
        raise ValueError(f"dictionary entry contains a reserved character: {name!r}")
    if not _starts_uppercase(name):
        raise ValueError(f"dictionary entry must start uppercase: {name!r}")
    if not unicodedata.is_normalized("NFC", name):
        raise ValueError(f"dictionary entry is not in Unicode NFC: {name!r}")
    return name


def _starts_uppercase(name: str) -> bool:
    return turkish_upper(name[0]) == name[0] != turkish_lower(name[0])


@dataclass(frozen=True)
class NameDictionary:
    """Gazetteer of proper person names (base forms, Turkish casing)."""

    entries: frozenset[str]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NameDictionary":
        return cls(entries=frozenset(map(_checked_name, names)))

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)


def load_dictionary(path) -> NameDictionary:
    """Load a gazetteer file: one name per line, ``#`` comments allowed.  A file
    of bare names, one a line, is checked whole; any other file, or one that
    fails, is read line by line, which words the error and names its line."""
    raw = read_data_file(path)
    names = raw.split()
    if (
        not any(map(raw.__contains__, _RESERVED + "#"))
        and all(map(_starts_uppercase, set(map(itemgetter(0), names))))
        and "\n".join(names) == raw.strip()
        and "".join(names).isprintable()
        and unicodedata.is_normalized("NFC", raw)
    ):
        return NameDictionary(entries=frozenset(names))
    names = []
    for lineno, entry in data_lines(raw):
        try:
            names.append(_checked_name(entry))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return NameDictionary(entries=frozenset(names))


def _attributes(raw: str, allowed: frozenset[str]) -> dict[str, str]:
    attrs: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _ATTR_RE.match(raw, pos)
        if not match:
            if raw[pos:].strip():
                raise ValueError(f"malformed attribute list: {raw.strip()!r}")
            break
        key, value = match.groups()
        if key not in allowed:
            raise ValueError(f"unknown attribute {key!r}")
        if key in attrs:
            raise ValueError(f"duplicate attribute {key!r}")
        attrs[key] = value
        pos = match.end()
    return attrs


@lru_cache(maxsize=1024)  # a document names few antecedents; errors are not kept
def _gold(ant: str | None) -> frozenset[str] | None:
    """The checked names of an ``ant`` value, None for no value."""
    if ant is None:
        return None
    names = ant.split(";")
    if len(names) > 1 and all(names[:-1]) and not names[-1]:
        raise ValueError("trailing ';' separator in ant attribute")
    if not all(names):
        raise ValueError("empty name in ant attribute")
    try:
        for name in names:
            _checked_name(name)
    except ValueError as exc:
        raise ValueError(f"bad name in ant attribute: {exc}") from None
    return frozenset(names)


def _read_tag(
    text: str, offset: int, position: int, seen_ids: set[int], lexicon: Lexicon
) -> tuple[PronounMention, int]:
    """The pronoun tag at ``offset``, as a mention at token ``position``,
    and the offset after it; a ValueError says what is wrong with the tag.
    A tag spelled as ``serialize_document`` writes it is read by one match,
    any other by the attribute reader; the same checks follow both."""
    if canonical := _CANONICAL_RE.match(text, offset):
        zero, value, kind, number, ant, raw_surface = canonical.groups()
        end = canonical.end()
    elif match := _PRO_OPEN_RE.match(text, offset) or _ZERO_RE.match(text, offset):
        zero, end = match.re is _ZERO_RE, match.end()
        attrs = _attributes(match.group(1), _ZERO_KEYS if zero else _PRO_KEYS)
        value, kind, number, ant = map(attrs.get, ("id", "kind", "num", "ant"))
    else:
        raise ValueError("malformed tag")
    if value is None:
        raise ValueError("missing id attribute")
    try:
        mention_id = int(value)
    except ValueError:
        raise ValueError(f"id is not an integer: {value!r}") from None
    if mention_id in seen_ids:
        raise ValueError(f"duplicate pronoun id {mention_id}")
    seen_ids.add(mention_id)
    if zero:
        if kind is None or number is None:
            raise ValueError(f"missing {'kind' if kind is None else 'num'} attribute")
        if kind not in _KINDS:
            raise ValueError(f"unknown kind value: {kind!r}")
        if number not in _NUMBERS:
            raise ValueError(f"unknown num value: {number!r}")
        mention = PronounMention(mention_id, _KINDS[kind], _NUMBERS[number], position, "", _gold(ant))
        return mention, end
    gold = _gold(ant)
    if not canonical:
        close = text.find(_PRO_CLOSE, end)
        if close < 0:
            raise ValueError("unterminated <pro> tag")
        raw_surface, end = text[end:close], close + len(_PRO_CLOSE)
        if "<" in raw_surface:
            raise ValueError("nested tag inside <pro>")
    if (tag := lexicon.pronoun_tags.get(body := raw_surface.strip())) is None:
        tokens = split_tokens(raw_surface)
        if len(tokens) != 1:
            raise ValueError(f"pronoun tag must contain exactly one token, got {raw_surface!r}")
        if (form := classify_pronoun(tokens[0], lexicon)) is None:
            raise ValueError(f"not a recognized pronoun form: {tokens[0]!r}")
        tag = lexicon.pronoun_tags[body] = tokens[0], form
    surface, form = tag
    return PronounMention(mention_id, form.kind, form.number, position, surface, gold), end


def parse_document(text: str, lexicon: Lexicon | None = None) -> Document:
    """Parse an annotated corpus file into a Document; one leading UTF-8
    byte-order mark is dropped, the rest is read in Unicode NFC.  Any other
    character that is neither whitespace nor printable (``str.isprintable``:
    control, format, surrogate, private-use and, by this interpreter's
    Unicode tables, unassigned characters), and each typographic quote mark
    U+201C, U+201D, U+00AB or U+00BB, is a ParseError after the tags'
    errors, whose line and column count in the NFC text."""
    text = text.removeprefix("\ufeff")
    if not unicodedata.is_normalized("NFC", text):
        text = unicodedata.normalize("NFC", text)
    lexicon = lexicon or default_lexicon()
    surfaces: list[str] = []
    mentions: list[PronounMention] = []
    seen_ids: set[int] = set()
    zero_at: dict[int, int] = {}  # token position -> offset of its first zero tag
    i = 0
    try:
        while (offset := text.find("<", i)) >= 0:
            surfaces += split_tokens(text[i:offset])
            mention, i = _read_tag(text, offset, len(surfaces), seen_ids, lexicon)
            if mention.surface:
                surfaces.append(mention.surface)
            else:
                zero_at.setdefault(mention.position, offset)
            mentions.append(mention)
        surfaces += split_tokens(text[i:])
        joined = "".join(surfaces)
        if not joined.isprintable() or any(map(joined.__contains__, _QUOTES)):
            offset, char = next((at, char) for at, char in enumerate(text)
                                if char in _QUOTES or not (char.isprintable() or char.isspace()))
            code, category = f"U+{ord(char):04X}", unicodedata.category(char)
            raise ValueError(f"typographic quote mark {code}" if char in _QUOTES
                             else f"unprintable character {code} ({category})")
        sentence_of = sentence_numbers(surfaces)
        # A zero inside the run of terminators, and closing quote, that
        # ends a sentence anchors to the first token of the next sentence.
        n = len(surfaces)
        anchor = {p: bisect_right(sentence_of, sentence_of[p], p) for p in zero_at
                  if 0 < p < n and surfaces[p - 1] in SENTENCE_TERMINATORS
                  and sentence_of[p - 1] == sentence_of[p]}
        if anchor:
            mentions = [
                replace(m, position=anchor[m.position])
                if not m.surface and m.position in anchor else m
                for m in mentions
            ]
        if dangling := [p for p in zero_at if anchor.get(p, p) == n]:
            offset = zero_at[min(dangling)]
            raise ValueError("zero pronoun tag has no following token")
    except ValueError as exc:
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        raise ParseError(str(exc), line, column) from None
    return assemble_document(surfaces, sentence_of, mentions)


def _render_mention_attrs(mention: PronounMention) -> str:
    parts = [f'id="{mention.id}"']
    if not mention.surface:
        parts.append(f'kind="{mention.kind.value}" num="{mention.number.value}"')
    if mention.gold_antecedent is not None:
        parts.append(f'ant="{";".join(sorted(mention.gold_antecedent))}"')
    return " ".join(parts)


def serialize_document(doc: Document) -> str:
    """Render a Document back to annotated text, one sentence per line.

    Re-parsing the output yields a structurally identical Document; the
    attribute order inside tags is canonical (id, kind, num, ant).  Each
    token is rendered in place, an overt pronoun inside its tag and zero
    tags before their token, after one separator: a newline at a sentence
    start, else a space before zero tags, else nothing before a mark other
    than an opening quote or after an opening quote, else a space.  Only
    the marks, the mentions and the sentence starts are visited.
    """
    surfaces, sentence_of, n = doc.surfaces, doc.sentence_of, len(doc.surfaces)
    rendered, seps, quotes = list(surfaces), [" "] * (n + 1), 0  # seps[i] goes before token i
    for i in compress(range(n), map(PUNCTUATION_TOKENS.__contains__, surfaces)):
        if surfaces[i] != QUOTE or quotes % 2:
            seps[i] = ""
        else:  # an opening quote: the token after it glues
            seps[i + 1] = ""
        quotes += surfaces[i] == QUOTE
    for mention in doc.pronouns:
        if mention.surface:
            at = mention.position
            rendered[at] = f"<pro {_render_mention_attrs(mention)}>{rendered[at]}</pro>"
    for mention in reversed(doc.pronouns):  # the first zero at a token ends up first
        if not mention.surface:
            at = mention.position
            rendered[at] = f"<zero {_render_mention_attrs(mention)}/> {rendered[at]}"
            seps[at] = " "
    for i in compress(range(1, n), map(ne, sentence_of[1:], sentence_of)):
        seps[i] = "\n"
    seps[0] = ""  # a document can start with a mark or a zero
    return "".join(map(add, seps, rendered)) + ("\n" if n else "")
